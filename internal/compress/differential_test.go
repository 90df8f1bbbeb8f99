package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// suffixArray is the sorter's result in the virtual-sentinel form the
// tests reason in: len(data)+1 entries, the sentinel suffix first.
func suffixArray(data []byte) []int32 {
	sa := make([]int32, 1+len(data))
	sa[0] = int32(len(data))
	sais(data, 256, sa[1:], make([]int32, 2*256+len(data)))
	return sa
}

// oracleBZWEncode is bzwAppendEncode over the oracle's suffix sort.
func oracleBZWEncode(src []byte) []byte {
	dst := binary.LittleEndian.AppendUint32(nil, uint32(len(src)))
	for off := 0; off < len(src); off += bzwBlock {
		bwt, primary := oracleBWTForward(nil, rle1Encode(src[off:min(off+bzwBlock, len(src))]))
		payload := huffEncode(zrleEncode(mtfEncode(bwt)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(primary))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
		dst = append(dst, payload...)
	}
	return dst
}

// checkBWTDifferential requires the induced-sorting transform to emit the
// oracle's bytes and primary index, and the whole BZW encoder the oracle
// chain's stream.
func checkBWTDifferential(t *testing.T, data []byte) {
	t.Helper()
	got, gp := bwtAppendForward(nil, data)
	want, wp := oracleBWTForward(nil, data)
	if gp != wp || !bytes.Equal(got, want) {
		t.Fatalf("bwt of %d bytes differs from the oracle: primary %d vs %d, bytes equal %v",
			len(data), gp, wp, bytes.Equal(got, want))
	}
	if enc := bzwAppendEncode(nil, data); !bytes.Equal(enc, oracleBZWEncode(data)) {
		t.Fatalf("bzw stream of %d bytes differs from the oracle chain's", len(data))
	}
}

// checkHuffDifferential requires both decoders to reject src, or both to
// accept it with equal output. Tables naming a code longer than huffMaxLen
// are outside the property: the walk mis-shifts them, the decoder must
// refuse them with its typed error.
func checkHuffDifferential(t *testing.T, src []byte) {
	t.Helper()
	got, gerr := huffAppendDecode(nil, src)
	if len(src) >= 260 && binary.LittleEndian.Uint32(src[256:]) != 0 {
		for _, l := range src[:256] {
			if l > huffMaxLen {
				var le *huffLengthError
				if !errors.As(gerr, &le) {
					t.Fatalf("table with code length %d: got %v, want a *huffLengthError", l, gerr)
				}
				return
			}
		}
		if int(binary.LittleEndian.Uint32(src[256:])) > 8*(len(src)-260) {
			// More symbols than payload bits: the oracle would size its
			// output from the hostile count before failing.
			if gerr == nil {
				t.Fatal("accepted a stream with more symbols than bits")
			}
			return
		}
	}
	want, werr := oracleHuffDecode(nil, src)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("decoders disagree on %d bytes: table-driven %v, walk %v", len(src), gerr, werr)
	}
	if gerr == nil && !bytes.Equal(got, want) {
		t.Fatalf("decoders accept %d bytes with different output", len(src))
	}
}

// huffStream hand-assembles a Huffman payload: the given length table, a
// symbol count of count, then the codes of syms followed by the low
// tailBits bits of tail, LSB-first. Lengths past huffMaxLen go into the
// header only; syms must not use them.
func huffStream(lengths [256]byte, count int, syms []byte, tail uint32, tailBits uint) []byte {
	codable := lengths
	for s, l := range codable {
		if l > huffMaxLen {
			codable[s] = 0
		}
	}
	codes := canonicalCodes(codable)
	w := bitWriter{buf: binary.LittleEndian.AppendUint32(append([]byte(nil), lengths[:]...), uint32(count))}
	for _, s := range syms {
		for i := int(lengths[s]) - 1; i >= 0; i-- {
			w.write(codes[s]>>i&1, 1)
		}
	}
	w.write(tail, tailBits)
	w.flush()
	return w.buf
}

// fibStream has symbol s occurring Fib(s+1) times, interleaved: the
// frequency profile that drives a Huffman tree to its greatest depth. 24
// symbols is the most a block's ≤ 160 KiB ZRLE stream has room for.
func fibStream(nsyms int) []byte {
	var out []byte
	a, b := 1, 1
	for s := 0; s < nsyms; s++ {
		out = append(out, bytes.Repeat([]byte{byte(s)}, a)...)
		a, b = b, a+b
	}
	// Deterministic shuffle so the stream is not 24 runs.
	for i := len(out) - 1; i > 0; i-- {
		j := int(uint64(i) * 0x9E3779B97F4A7C15 >> 33 % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// ladderLengths is a complete code whose longest codes (13 bits) exceed the
// lookup width: lengths 1, 2, …, 12, 13, 13 for symbols 0…13.
func ladderLengths() (lengths [256]byte) {
	for s := 0; s < 13; s++ {
		lengths[s] = byte(s + 1)
	}
	lengths[13] = 13
	return lengths
}

// ladderSlowStream decodes to ladderSlowSyms, its 12- and 13-bit codes
// through the slow path mid-stream.
var ladderSlowSyms = []byte{0, 12, 3, 13, 11, 0}

func ladderSlowStream() []byte {
	return huffStream(ladderLengths(), len(ladderSlowSyms), ladderSlowSyms, 0, 0)
}

// ladderCutStream claims four symbols and ends 4 bits into a 13-bit code
// (13 + 5 + 2 code bits, then 1111 up to the byte boundary): the lookup of
// 1111 plus zero padding hits the 5-bit code 11110 and has fewer bits than
// it needs.
func ladderCutStream() []byte {
	return huffStream(ladderLengths(), 4, []byte{12, 4, 1}, 0xF, 4)
}

func bwtDifferentialSeeds() [][]byte {
	return [][]byte{
		{},
		{7},
		bytes.Repeat([]byte("ab"), 32768),
		make([]byte, 65536),
		bytes.Repeat([]byte{0, 0, 0, 0, 251}, 13000),
		// Exactly one block, and one byte into the second, through BZW.Encode.
		coeffTexture(bzwBlock),
		coeffTexture(bzwBlock + 1),
		[]byte("banana"),
		[]byte("mississippi"),
		bytes.Repeat([]byte{255}, 300),
	}
}

func huffDifferentialSeeds() [][]byte {
	var tooLong [256]byte
	tooLong[0], tooLong[1] = 1, 33
	var overSubscribed [256]byte // three 1-bit codes: one can never match
	overSubscribed[0], overSubscribed[1], overSubscribed[2] = 1, 1, 1
	enc := huffEncode([]byte("seed payload for the decoder path"))
	return [][]byte{
		{},
		huffEncode(nil),
		enc,
		enc[:len(enc)-1],
		// Codes up to depth 23: every length past the table width.
		huffEncode(fibStream(24)),
		ladderSlowStream(),
		ladderCutStream(),
		huffStream(tooLong, 1, nil, 0, 8),
		huffStream(overSubscribed, 8, nil, 0b10011010, 8),
	}
}

func TestBWTForwardDifferential(t *testing.T) {
	for _, data := range bwtDifferentialSeeds() {
		checkBWTDifferential(t, data)
	}
	d := bzwStages(t, realChunk())
	for _, r1 := range d.r1 {
		checkBWTDifferential(t, r1)
	}
}

func TestHuffDecodeDifferential(t *testing.T) {
	for _, src := range huffDifferentialSeeds() {
		checkHuffDifferential(t, src)
	}
	d := bzwStages(t, realChunk())
	for _, payload := range d.huff {
		checkHuffDifferential(t, payload)
	}
}

func FuzzBWTForwardDifferential(f *testing.F) {
	for _, seed := range bwtDifferentialSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 80<<10 {
			data = data[:80<<10]
		}
		checkBWTDifferential(t, data)
	})
}

func FuzzHuffDecodeDifferential(f *testing.F) {
	for _, seed := range huffDifferentialSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkHuffDifferential)
}

// TestHuffSlowPathSeeds checks the hand-built seeds do what their comments
// say, so the differential runs above are known to reach the slow path.
func TestHuffSlowPathSeeds(t *testing.T) {
	fib := fibStream(24)
	if len(fib) > 160<<10 {
		t.Fatalf("fibonacci stream is %d bytes, more than a block's ZRLE stream", len(fib))
	}
	var freq [256]int
	for _, b := range fib {
		freq[b]++
	}
	deepest := 0
	for _, l := range huffLengths(freq) {
		deepest = max(deepest, int(l))
	}
	if deepest != 23 {
		t.Fatalf("fibonacci stream reaches code length %d, want 23", deepest)
	}
	dec, err := huffDecode(huffEncode(fib))
	if err != nil || !bytes.Equal(dec, fib) {
		t.Fatalf("fibonacci stream round trip: %v", err)
	}

	dec, err = huffDecode(ladderSlowStream())
	if err != nil || !bytes.Equal(dec, ladderSlowSyms) {
		t.Fatalf("ladder stream decoded to %v, %v; want %v", dec, err, ladderSlowSyms)
	}
	short := ladderCutStream()
	if len(short) != 260+3 {
		t.Fatalf("short ladder stream has %d payload bytes, want 3", len(short)-260)
	}
	if _, err := huffDecode(short); !errors.Is(err, errHuffTruncated) {
		t.Fatalf("stream ending inside a long code: got %v, want %v", err, errHuffTruncated)
	}
}

// TestHuffTruncationNamesHuffman: a truncated Huffman payload used to be
// reported as an LZW error.
func TestHuffTruncationNamesHuffman(t *testing.T) {
	enc := huffEncode(bytes.Repeat([]byte("truncate me "), 40))
	for _, cut := range []int{1, len(enc) - 270, len(enc) - 261} {
		_, err := huffDecode(enc[:len(enc)-cut])
		if err == nil {
			t.Fatalf("cut %d: truncated payload accepted", cut)
		}
		if !strings.Contains(err.Error(), "huffman") || strings.Contains(err.Error(), "lzw") {
			t.Fatalf("cut %d: truncation reported as %q", cut, err)
		}
	}
}

// TestHuffRejectsOverlongCodeLength: codes are built in a uint32, so a
// table naming a longer one must be refused, not mis-shifted.
func TestHuffRejectsOverlongCodeLength(t *testing.T) {
	for _, length := range []byte{33, 64, 255} {
		var lengths [256]byte
		lengths[0], lengths[9] = 1, length
		_, err := huffDecode(huffStream(lengths, 3, []byte{0, 0, 0}, 0, 0))
		var le *huffLengthError
		if !errors.As(err, &le) || le.sym != 9 || le.length != int(length) {
			t.Fatalf("length %d: got %v, want a *huffLengthError for symbol 9", length, err)
		}
	}
	// The bound itself is accepted.
	var lengths [256]byte
	lengths[0], lengths[9] = 1, huffMaxLen
	if dec, err := huffDecode(huffStream(lengths, 3, []byte{0, 0, 0}, 0, 0)); err != nil || len(dec) != 3 {
		t.Fatalf("length %d: %v", huffMaxLen, err)
	}
}
