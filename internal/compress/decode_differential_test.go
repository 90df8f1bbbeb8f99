package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

// Differential checks of the decode kernels against the ones they replaced
// (oracle_test.go): on every input both reject, or both accept with equal
// bytes. The only inputs outside the property are BZW blocks larger than
// the encoder can emit, which the decoder now refuses (bzwBlockSizeError).

func checkBWTInverseDifferential(t *testing.T, col []byte, primary uint32) {
	t.Helper()
	got, gerr := bwtAppendInverse(nil, col, int(primary))
	want, werr := oracleBWTInverse(nil, col, int(primary))
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("inverse bwt of %d bytes, primary %d: packed table %v, oracle %v", len(col), primary, gerr, werr)
	}
	if gerr == nil && !bytes.Equal(got, want) {
		t.Fatalf("inverse bwt of %d bytes, primary %d: outputs differ", len(col), primary)
	}
}

func checkLZWDecodeDifferential(t *testing.T, src []byte) {
	t.Helper()
	got, gerr := LZW{}.Decode(src)
	want, werr := oracleLZWDecode(src)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("lzw stream of %d bytes: decoder %v, oracle %v", len(src), gerr, werr)
	}
	if gerr == nil && !bytes.Equal(got, want) {
		t.Fatalf("lzw stream of %d bytes: outputs differ (%d vs %d bytes)", len(src), len(got), len(want))
	}
}

func checkBZWDecodeDifferential(t *testing.T, src []byte) {
	t.Helper()
	got, gerr := BZW{}.Decode(src)
	var tooBig *bzwBlockSizeError
	if errors.As(gerr, &tooBig) {
		// The oracle would size its buffers from the hostile count.
		return
	}
	want, werr := oracleBZWDecode(src)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("bzw stream of %d bytes: decoder %v, oracle %v", len(src), gerr, werr)
	}
	if gerr == nil && !bytes.Equal(got, want) {
		t.Fatalf("bzw stream of %d bytes: outputs differ (%d vs %d bytes)", len(src), len(got), len(want))
	}
}

// bwtColumn is one inverse-BWT input.
type bwtColumn struct {
	col     []byte
	primary uint32
}

// Hand-picked columns: primary at its two extremes, and a column whose LF
// permutation puts row 0 and the sentinel row on a cycle whose length
// divides the row count (TestDecodeSeedsDoWhatTheySay).
var (
	bwtPrimaryFirst = []byte("abcd") // the whole text is the smallest suffix
	bwtPrimaryLast  = []byte("dcba") // … the largest
	bwtShortCycle   = bwtColumn{[]byte("aaa"), 1}
)

func bwtInverseSeeds() []bwtColumn {
	seeds := []bwtColumn{
		{nil, 0},
		{[]byte("annbaa"), 0},
		{[]byte("annbaa"), 7},
		{[]byte("annbaa"), 3},
		bwtShortCycle,
		{[]byte("bab"), 2},
		{bytes.Repeat([]byte{9}, 100), 50},
	}
	for _, text := range [][]byte{
		[]byte("banana"), []byte("mississippi"), {7}, bwtPrimaryFirst, bwtPrimaryLast,
		bytes.Repeat([]byte("ab"), 3000), coeffTexture(5000),
	} {
		col, primary := bwtAppendForward(nil, text)
		seeds = append(seeds, bwtColumn{col, uint32(primary)})
		// The right column under every wrong start row of a short text.
		if len(text) <= 11 {
			for p := 0; p <= len(text)+1; p++ {
				seeds = append(seeds, bwtColumn{col, uint32(p)})
			}
		}
	}
	return seeds
}

// lzwFreeEncode is the LZW format without the encoder's 1 KiB dictionary
// blocks: the only way to a 12-bit code and to the clear code the encoder
// writes when code 4,095 has been assigned.
func lzwFreeEncode(src []byte) []byte {
	w := bitWriter{buf: binary.LittleEndian.AppendUint32(nil, uint32(len(src)))}
	if len(src) == 0 {
		return w.buf
	}
	dict := map[uint32]uint32{}
	next, width := uint32(lzwFirstCode), uint(lzwMinWidth)
	cur := uint32(src[0])
	for _, b := range src[1:] {
		slot := cur<<8 | uint32(b)
		if c, ok := dict[slot]; ok {
			cur = c
			continue
		}
		w.write(cur, width)
		dict[slot] = next
		next++
		if next == 1<<width {
			if width < lzwMaxWidth {
				width++
			} else {
				w.write(lzwClearCode, width)
				clear(dict)
				next, width = lzwFirstCode, lzwMinWidth
			}
		}
		cur = uint32(b)
	}
	w.write(cur, width)
	w.flush()
	return w.buf
}

// lzwCodes hand-assembles a stream: an announced length, then 9-bit codes.
func lzwCodes(n int, codes ...uint32) []byte {
	w := bitWriter{buf: binary.LittleEndian.AppendUint32(nil, uint32(n))}
	for _, c := range codes {
		w.write(c, lzwMinWidth)
	}
	w.flush()
	return w.buf
}

// noise is a deterministic incompressible payload: new digraphs throughout,
// so a free-running dictionary fills in about as many bytes as it has codes.
func noise(n int) []byte {
	out := make([]byte, n)
	h := uint64(1)
	for i := range out {
		h = h*6364136223846793005 + 1442695040888963407
		out[i] = byte(h >> 57)
	}
	return out
}

// lzwWidthCrossing is long enough for a free-running dictionary to pass the
// 9→10, 10→11 and 11→12-bit boundaries and the 4,096-code reset, twice.
var lzwWidthCrossing = noise(12000)

func lzwDecodeSeeds() [][]byte {
	seeds := [][]byte{
		{},
		{1, 2},
		LZW{}.Encode(nil),
		LZW{}.Encode([]byte("the quick brown fox jumps over the lazy dog")),
		// KwKwK chains: every code but the first is the one being defined.
		LZW{}.Encode(bytes.Repeat([]byte("a"), 700)),
		lzwFreeEncode(bytes.Repeat([]byte("a"), 9000)),
		LZW{}.Encode(bytes.Repeat([]byte("ab"), 400)),
		// Clear codes at the encoder's 1 KiB block boundaries.
		LZW{}.Encode(coeffTexture(5000)),
		LZW{}.Encode(append(bytes.Repeat([]byte{7}, 1100), 1, 2, 3, 4, 5)),
		lzwFreeEncode(lzwWidthCrossing),
		// A clear code between two literals, one first in the stream, one
		// last, two in a row; KwKwK straight after a clear (nothing to
		// extend: a bad code); a code past the dictionary; output past the
		// announced length.
		lzwCodes(2, 'a', lzwClearCode, 'b'),
		lzwCodes(1, lzwClearCode, 'a'),
		lzwCodes(1, 'a', lzwClearCode),
		lzwCodes(2, 'a', lzwClearCode, lzwClearCode, 'b'),
		lzwCodes(3, 'a', lzwClearCode, lzwFirstCode),
		lzwCodes(3, lzwFirstCode),
		lzwCodes(5, 'a', 'b', 300),
		lzwCodes(4, 'a', lzwFirstCode, lzwFirstCode+1),
		lzwCodes(3, 'a', 'b', lzwFirstCode, lzwFirstCode),
		// An absurd announced length over a valid short stream.
		append([]byte{255, 255, 255, 255}, lzwCodes(0, 'a', 'b')[4:]...),
	}
	// Streams of 1–17 codes end inside the bit reader's byte-wise tail at
	// every alignment; each is also cut one byte short.
	for n := 1; n <= 17; n++ {
		enc := LZW{}.Encode(noise(n))
		seeds = append(seeds, enc, enc[:len(enc)-1])
	}
	// A stream that widens once and holds a clear code, cut every 7 bytes.
	enc := LZW{}.Encode(noise(1300))
	for cut := 0; cut < len(enc); cut += 7 {
		seeds = append(seeds, enc[:cut])
	}
	return seeds
}

// bzwConcat builds a stream whose blocks are those of the separately
// encoded pieces: the decoder takes blocks of any decoded size, the encoder
// only cuts at 64 KiB.
func bzwConcat(pieces ...[]byte) []byte {
	total := 0
	var blocks []byte
	for _, p := range pieces {
		total += len(p)
		blocks = append(blocks, BZW{}.Encode(p)[4:]...)
	}
	return append(binary.LittleEndian.AppendUint32(nil, uint32(total)), blocks...)
}

// withTotal returns enc with its announced length replaced.
func withTotal(enc []byte, total int) []byte {
	out := bytes.Clone(enc)
	binary.LittleEndian.PutUint32(out, uint32(total))
	return out
}

// bzwTwoBlocks is a two-block stream short enough to cut at every byte.
var bzwTwoBlocks = func() []byte {
	data := make([]byte, bzwBlock+3000)
	copy(data[bzwBlock-5:], "a block boundary in the middle of a sentence")
	return BZW{}.Encode(data)
}()

func bzwDecodeSeeds() [][]byte {
	one := BZW{}.Encode(coeffTexture(1000))
	four := BZW{}.Encode(realChunk())
	seeds := [][]byte{
		{},
		{0, 0, 0, 0},
		BZW{}.Encode(nil),
		one,
		BZW{}.Encode(coeffTexture(bzwBlock + 1)),
		four,
		BZW{}.Encode(coeffTexture(8*bzwBlock + 5)),
		// Length mismatches, and blocks left over once the announced
		// length is reached: after the first block, after the second (a
		// wave of two has both decoded by then), after the last.
		withTotal(one, 999),
		withTotal(one, 1001),
		withTotal(four, bzwBlock),
		withTotal(four, bzwBlock-1),
		withTotal(four, 2*bzwBlock),
		withTotal(four, len(realChunk())+1),
		append(bytes.Clone(four), four[4:]...),
		append(bytes.Clone(four), 0),
		// Many small blocks: more of them than length/64 KiB announces.
		bzwConcat([]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e"), []byte("f"),
			[]byte("g"), []byte("h"), []byte("i"), []byte("j"), []byte("k")),
		bzwConcat(coeffTexture(bzwBlock), []byte("short"), coeffTexture(bzwBlock), nil, []byte("tail")),
	}
	// A damaged block in each position of the four: a primary index out of
	// range, then a payload byte flipped.
	off := 4
	for range 4 {
		plen := int(binary.LittleEndian.Uint32(four[off+4:]))
		bad := bytes.Clone(four)
		binary.LittleEndian.PutUint32(bad[off:], 1<<20)
		seeds = append(seeds, bad)
		bad = bytes.Clone(four)
		bad[off+8+plen/2] ^= 0x10
		seeds = append(seeds, bad)
		off += 8 + plen
	}
	for cut := range bzwTwoBlocks {
		seeds = append(seeds, bzwTwoBlocks[:cut])
	}
	return seeds
}

func TestBWTInverseDifferential(t *testing.T) {
	for _, s := range bwtInverseSeeds() {
		checkBWTInverseDifferential(t, s.col, s.primary)
	}
	d := bzwStages(t, realChunk())
	for k, col := range d.bwt {
		checkBWTInverseDifferential(t, col, uint32(d.primary[k]))
		checkBWTInverseDifferential(t, col, uint32(d.primary[k])+1)
	}
}

func TestLZWDecodeDifferential(t *testing.T) {
	for _, src := range lzwDecodeSeeds() {
		checkLZWDecodeDifferential(t, src)
	}
	checkLZWDecodeDifferential(t, LZW{}.Encode(realChunk()))
}

func TestBZWDecodeDifferential(t *testing.T) {
	for _, src := range bzwDecodeSeeds() {
		checkBZWDecodeDifferential(t, src)
	}
}

// TestZRLEMTFDecodeDifferential: the fused pass against the two it replaced.
func TestZRLEMTFDecodeDifferential(t *testing.T) {
	check := func(zr []byte) bool {
		got, gerr := zrleMTFAppendDecode(nil, zr)
		mtf, werr := oracleZRLEDecode(nil, zr)
		if (gerr == nil) != (werr == nil) {
			return false
		}
		want := make([]byte, len(mtf))
		oracleMTFDecodeInto(want, mtf)
		return gerr != nil || bytes.Equal(got, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	roundTrip := func(data []byte) bool {
		got, err := zrleMTFAppendDecode(nil, zrleEncode(mtfEncode(data)))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		{}, {0}, {0, 255}, {0, 255, 255}, {0, 255, 0}, {0, 0}, {5, 0, 3, 255, 0, 1, 1},
		{255, 254, 0, 7, 8, 9, 0, 255, 255, 3, 200},
	}
	d := bzwStages(t, realChunk())
	for _, zr := range append(seeds, d.zr...) {
		if !check(zr) {
			t.Fatalf("fused zrle+mtf decode of %d bytes differs from the two passes", len(zr))
		}
	}
}

func FuzzBWTInverseDifferential(f *testing.F) {
	for _, s := range bwtInverseSeeds() {
		f.Add(s.col, s.primary)
	}
	f.Fuzz(func(t *testing.T, col []byte, primary uint32) {
		if len(col) > 80<<10 {
			col = col[:80<<10]
		}
		checkBWTInverseDifferential(t, col, primary)
	})
}

func FuzzLZWDecodeDifferential(f *testing.F) {
	for _, seed := range lzwDecodeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkLZWDecodeDifferential)
}

func FuzzBZWDecodeDifferential(f *testing.F) {
	for _, seed := range bzwDecodeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkBZWDecodeDifferential)
}

// TestDecodeSeedsDoWhatTheySay checks the hand-built seeds reach the paths
// their comments name, so the differential runs above are known to.
func TestDecodeSeedsDoWhatTheySay(t *testing.T) {
	for _, c := range []struct {
		text []byte
		want int
	}{{bwtPrimaryFirst, 1}, {bwtPrimaryLast, len(bwtPrimaryLast)}} {
		if _, primary := bwtAppendForward(nil, c.text); primary != c.want {
			t.Fatalf("bwt of %q has primary %d, want %d", c.text, primary, c.want)
		}
	}

	// The short-cycle column: walking LF from row 0 reaches the sentinel
	// row after fewer than n steps and is back on it after exactly n, so a
	// decoder that only looks where the walk ends would accept it.
	col, primary := bwtShortCycle.col, int(bwtShortCycle.primary)
	n := len(col)
	lf := make([]int, n+1)
	var before [256]int
	for b := 1; b < 256; b++ {
		before[b] = before[b-1] + bytes.Count(col, []byte{byte(b - 1)})
	}
	var seen [256]int
	for r := 0; r <= n; r++ {
		if r == primary {
			continue
		}
		j := r
		if r > primary {
			j--
		}
		b := col[j]
		lf[r] = 1 + before[b] + seen[b]
		seen[b]++
	}
	r, firstHit := 0, 0
	for step := 1; step <= n; step++ {
		if r = lf[r]; r == primary && firstHit == 0 {
			firstHit = step
		}
	}
	if firstHit == 0 || firstHit >= n || r != primary || (n+1)%(firstHit+1) != 0 {
		t.Fatalf("short-cycle column: sentinel first reached at step %d of %d, walk ends on row %d (sentinel %d)",
			firstHit, n, r, primary)
	}
	if _, err := bwtAppendInverse(nil, col, primary); err == nil {
		t.Fatal("short-cycle column accepted")
	}

	// The free-running LZW stream holds 12-bit codes and a width-ceiling
	// clear code, and decodes.
	enc := lzwFreeEncode(lzwWidthCrossing)
	if len(enc)-4 < (lzwMaxCodes-lzwFirstCode)*9/8*2 {
		t.Fatalf("free-running stream is %d bytes: too short to have filled the dictionary twice", len(enc))
	}
	dec, err := LZW{}.Decode(enc)
	if err != nil || !bytes.Equal(dec, lzwWidthCrossing) {
		t.Fatalf("free-running stream: %v", err)
	}
	dec, err = LZW{}.Decode(lzwFreeEncode(bytes.Repeat([]byte("a"), 9000)))
	if err != nil || len(dec) != 9000 {
		t.Fatalf("free-running KwKwK stream: %d bytes, %v", len(dec), err)
	}
	if dec, err := (LZW{}).Decode(lzwCodes(2, 'a', lzwClearCode, 'b')); err != nil || string(dec) != "ab" {
		t.Fatalf("clear code between literals: %q, %v", dec, err)
	}
	if dec, err := (LZW{}).Decode(lzwCodes(3, 'a', lzwFirstCode)); err != nil || string(dec) != "aaa" {
		t.Fatalf("hand-built KwKwK: %q, %v", dec, err)
	}

	// The many-small-blocks streams decode; the surplus-block ones do not.
	dec, err = BZW{}.Decode(bzwConcat([]byte("ab"), []byte("c"), nil, []byte("def")))
	if err != nil || string(dec) != "abcdef" {
		t.Fatalf("concatenated blocks: %q, %v", dec, err)
	}
	four := BZW{}.Encode(realChunk())
	for _, total := range []int{bzwBlock, 2 * bzwBlock} {
		if _, err := (BZW{}).Decode(withTotal(four, total)); err == nil {
			t.Fatalf("stream with blocks past its announced %d bytes accepted", total)
		}
	}
	if n := len(bzwTwoBlocks); n > 1000 {
		t.Fatalf("two-block stream is %d bytes: too long to cut at every offset", n)
	}
}
