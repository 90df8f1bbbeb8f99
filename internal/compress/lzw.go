package compress

import (
	"encoding/binary"
	"fmt"
	"sync"

	"tunable/internal/bufpool"
)

// LZW is compression method A: a from-scratch Lempel–Ziv–Welch coder with
// variable-width codes (9–12 bits, as in the GIF/compress-era coders contemporary with the paper) and dictionary reset on overflow,
// equivalent in spirit to the LZW the paper's application used.
type LZW struct{}

// NewLZW returns the LZW codec.
func NewLZW() LZW { return LZW{} }

// Name implements Codec.
func (LZW) Name() string { return "lzw" }

// EncodeCost implements Codec.
func (LZW) EncodeCost() float64 { return 1.0 }

// DecodeCost implements Codec.
func (LZW) DecodeCost() float64 { return 0.6 }

const (
	lzwMinWidth  = 9
	lzwMaxWidth  = 12
	lzwClearCode = 256
	lzwFirstCode = 257
	lzwMaxCodes  = 1 << lzwMaxWidth
	// lzwBlock bounds the streaming latency and memory of the coder: the
	// dictionary is reset every lzwBlock input bytes, as interactive
	// streaming implementations do. This keeps method A cheap and
	// low-latency at the price of compression ratio — the tradeoff against
	// method B that Experiment 1 adapts across.
	lzwBlock = 1 << 10
)

// bitWriter packs codes LSB-first.
type bitWriter struct {
	buf  []byte
	acc  uint64
	bits uint
}

func (w *bitWriter) write(code uint32, width uint) {
	w.acc |= uint64(code) << w.bits
	w.bits += width
	for w.bits >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.bits -= 8
	}
}

func (w *bitWriter) flush() {
	if w.bits > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc, w.bits = 0, 0
	}
}

// bitReader unpacks codes LSB-first: acc holds the next nbits stream bits
// (and, after a wide refill, later stream bits above them, which the next
// refill ORs the same bits over).
type bitReader struct {
	data  []byte
	pos   int
	acc   uint64
	nbits uint
}

// refill tops the accumulator up to at least 56 bits, eight bytes at a time
// while the data lasts and byte-wise over its tail.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.data) {
		r.acc |= binary.LittleEndian.Uint64(r.data[r.pos:]) << r.nbits
		adv := (63 - r.nbits) >> 3
		r.pos += int(adv)
		r.nbits += adv * 8
		return
	}
	for ; r.nbits <= 56 && r.pos < len(r.data); r.pos++ {
		r.acc |= uint64(r.data[r.pos]) << r.nbits
		r.nbits += 8
	}
}

// lzwEncTable is the encoder dictionary: a flat array indexed by
// (prefix code << 8 | next byte). Each entry packs a 16-bit generation tag
// with the 12-bit assigned code, so resetting the dictionary (every block
// and at every width-ceiling overflow) is a single generation increment
// instead of reallocating a 4096-entry map. The array is 4 MiB and lives
// in a sync.Pool shared by all encoders.
type lzwEncTable struct {
	slots []uint32 // lzwMaxCodes * 256 entries: generation<<16 | code
	gen   uint32
}

var lzwEncPool = sync.Pool{New: func() any {
	return &lzwEncTable{slots: make([]uint32, lzwMaxCodes*256)}
}}

// reset starts a new dictionary generation in O(1); the backing array is
// wiped only when the 16-bit generation counter wraps.
func (t *lzwEncTable) reset() {
	t.gen++
	if t.gen == 1<<16 {
		for i := range t.slots {
			t.slots[i] = 0
		}
		t.gen = 1
	}
}

// Encode implements Codec. The returned buffer is drawn from the shared
// bufpool; callers that are done with it may bufpool.Put it back.
func (LZW) Encode(src []byte) []byte {
	return lzwAppendEncode(bufpool.Get(4 + len(src) + len(src)/2 + 16)[:0], src)
}

// lzwAppendEncode appends the encoded form of src to dst.
func lzwAppendEncode(dst, src []byte) []byte {
	var w bitWriter
	if cap(dst)-len(dst) < 4+len(src)+len(src)/2 {
		// Worst case: one ≤12-bit code per input byte plus clear codes —
		// under 1.5 bytes per byte; reserving it up front keeps the bit
		// writer from reallocating mid-stream.
		grown := make([]byte, len(dst), len(dst)+4+len(src)+len(src)/2+16)
		copy(grown, dst)
		dst = grown
	}
	w.buf = dst
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(src)))
	w.buf = append(w.buf, hdr[:]...)
	if len(src) == 0 {
		return w.buf
	}
	t := lzwEncPool.Get().(*lzwEncTable)
	defer lzwEncPool.Put(t)
	for off := 0; off < len(src); off += lzwBlock {
		end := off + lzwBlock
		if end > len(src) {
			end = len(src)
		}
		block := src[off:end]
		t.reset()
		gen := t.gen << 16
		next := uint32(lzwFirstCode)
		width := uint(lzwMinWidth)
		cur := uint32(block[0])
		for i := 1; i < len(block); i++ {
			b := block[i]
			slot := cur<<8 | uint32(b)
			if e := t.slots[slot]; e&0xFFFF0000 == gen {
				cur = e & 0xFFFF
				continue
			}
			w.write(cur, width)
			t.slots[slot] = gen | next
			next++
			// Grow the code width when the next code no longer fits; reset
			// the dictionary at the width ceiling.
			if next == 1<<width {
				if width < lzwMaxWidth {
					width++
				} else {
					w.write(lzwClearCode, width)
					t.reset()
					gen = t.gen << 16
					next = lzwFirstCode
					width = lzwMinWidth
				}
			}
			cur = uint32(b)
		}
		w.write(cur, width)
		if end < len(src) {
			// Block boundary: a clear code tells the decoder to reset,
			// exactly as the mid-stream overflow reset does. The decoder
			// adds one more dictionary entry after the final code of the
			// block and may widen at that point; mirror it so the clear
			// code is written at the width the decoder will read with.
			next++
			if next == 1<<width && width < lzwMaxWidth {
				width++
			}
			w.write(lzwClearCode, width)
		}
	}
	w.flush()
	return w.buf
}

// lzwDecTable is the decoder dictionary. Every string in it already sits
// in the output: code c is the previous code's string plus the first byte
// of the next, and that is where the two were written. Entry c is that
// place, start<<16 | length; expanding a code is a forward copy.
type lzwDecTable [lzwMaxCodes]uint64

var lzwDecPool = sync.Pool{New: func() any { return new(lzwDecTable) }}

// Decode implements Codec.
func (LZW) Decode(src []byte) ([]byte, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("compress: lzw header truncated")
	}
	n := int(binary.LittleEndian.Uint32(src))
	if n == 0 {
		return []byte{}, nil
	}
	// Cap the speculative preallocation: a malformed header can claim an
	// absurd length, but a genuine LZW stream expands each code (≥ 9 bits)
	// to at most ~4 KiB of output, so anything beyond that bound grows on
	// demand and the length check below rejects the stream.
	pre := n
	if limit := 4096 * (len(src) - 4) * 8 / lzwMinWidth; pre > limit+64 {
		pre = limit + 64
	}
	out := bufpool.Get(pre)
	out, err := lzwDecodeInto(out[:cap(out)], src[4:], n)
	if err != nil {
		bufpool.Put(out)
		return nil, err
	}
	return out[:n], nil
}

// lzwDecodeInto decodes n bytes from src into the front of out, growing it
// if an overstated n left it short. out comes back on error too.
func lzwDecodeInto(out, src []byte, n int) ([]byte, error) {
	r := bitReader{data: src}
	t := lzwDecPool.Get().(*lzwDecTable)
	defer lzwDecPool.Put(t)
	next := uint32(lzwFirstCode)
	width := uint(lzwMinWidth)
	w := 0                  // bytes written
	prevAt, prevLen := 0, 0 // the previous code's string; prevLen 0 after a clear
	for w < n {
		if r.nbits < width {
			if r.refill(); r.nbits < width {
				return out, fmt.Errorf("compress: lzw stream truncated")
			}
		}
		code := uint32(r.acc) & (1<<width - 1)
		r.acc >>= width
		r.nbits -= width
		if code == lzwClearCode {
			next = lzwFirstCode
			width = lzwMinWidth
			prevLen = 0
			continue
		}
		// Define the entry this code completes before expanding it: the
		// KwKwK case (the code being defined right now) is then an
		// ordinary entry whose last byte is about to be written.
		if prevLen > 0 && next < lzwMaxCodes {
			t[next] = uint64(prevAt)<<16 | uint64(prevLen+1)
			next++
		}
		if code >= next {
			return out, fmt.Errorf("compress: lzw bad code %d", code)
		}
		at, l := 0, 1 // a literal is its own one-byte string
		if code >= lzwFirstCode {
			at, l = int(t[code]>>16), int(t[code]&0xFFFF)
		}
		if w+l > len(out) {
			out = growBytes(out, w+l-len(out))
			out = out[:cap(out)]
		}
		switch {
		case code < 256:
			out[w] = byte(code)
		case l <= 8 && w+8 <= len(out):
			// One eight-byte move; what it writes past l is overwritten by
			// the codes that follow or lies beyond n.
			binary.LittleEndian.PutUint64(out[w:], binary.LittleEndian.Uint64(out[at:]))
		default:
			copy(out[w:w+l], out[at:at+l])
		}
		if at+l > w {
			// KwKwK: the string runs one byte into itself — its first.
			out[w+l-1] = out[w]
		}
		prevAt, prevLen = w, l
		w += l
		// Width growth must track the encoder: the encoder widens after
		// assigning code (1<<width)-1, which the decoder observes one step
		// later (it has one fewer entry at the same point in the stream).
		if next == 1<<width-1 && width < lzwMaxWidth {
			width++
		}
	}
	if w != n {
		return out, fmt.Errorf("compress: lzw length mismatch %d != %d", w, n)
	}
	return out, nil
}
