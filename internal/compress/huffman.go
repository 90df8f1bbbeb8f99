package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Canonical Huffman coding over the byte alphabet. The encoded form is:
// 256 code lengths (one byte each), a 4-byte little-endian symbol count,
// then the LSB-first bitstream.

// huffNode lives in a flat arena (at most 2·256−1 nodes); left/right are
// arena indices, -1 for leaves' children.
type huffNode struct {
	freq        int
	sym         int // -1 for internal nodes
	left, right int32
	order       int // tie-break for determinism
}

// huffBuilder is the tree-construction state: a node arena plus an index
// min-heap over it. The heap is hand-rolled (sift up/down on an []int32)
// rather than container/heap so no index is ever boxed into an interface;
// the whole builder is pooled, making per-block Huffman coding
// allocation-free.
type huffBuilder struct {
	nodes []huffNode
	idx   []int32
}

func (b *huffBuilder) less(x, y int32) bool {
	a, c := &b.nodes[x], &b.nodes[y]
	if a.freq != c.freq {
		return a.freq < c.freq
	}
	return a.order < c.order
}

func (b *huffBuilder) push(n int32) {
	b.idx = append(b.idx, n)
	i := len(b.idx) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !b.less(b.idx[i], b.idx[parent]) {
			break
		}
		b.idx[i], b.idx[parent] = b.idx[parent], b.idx[i]
		i = parent
	}
}

func (b *huffBuilder) pop() int32 {
	top := b.idx[0]
	n := len(b.idx) - 1
	b.idx[0] = b.idx[n]
	b.idx = b.idx[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		m := l
		if r < n && b.less(b.idx[r], b.idx[l]) {
			m = r
		}
		if !b.less(b.idx[m], b.idx[i]) {
			break
		}
		b.idx[i], b.idx[m] = b.idx[m], b.idx[i]
		i = m
	}
	return top
}

var huffPool = sync.Pool{New: func() any {
	return &huffBuilder{nodes: make([]huffNode, 0, 511), idx: make([]int32, 0, 256)}
}}

// huffLengths computes code lengths from symbol frequencies. The
// construction is the classic binary heap merge with deterministic
// (frequency, creation order) tie-breaking; only the node storage differs
// from a pointer-based tree.
func huffLengths(freq [256]int) [256]byte {
	var lengths [256]byte
	b := huffPool.Get().(*huffBuilder)
	defer huffPool.Put(b)
	b.nodes = b.nodes[:0]
	b.idx = b.idx[:0]
	order := 0
	for s, f := range freq {
		if f > 0 {
			b.nodes = append(b.nodes, huffNode{freq: f, sym: s, left: -1, right: -1, order: order})
			b.push(int32(len(b.nodes) - 1))
			order++
		}
	}
	switch len(b.idx) {
	case 0:
		return lengths
	case 1:
		lengths[b.nodes[b.idx[0]].sym] = 1
		return lengths
	}
	for len(b.idx) > 1 {
		l := b.pop()
		r := b.pop()
		b.nodes = append(b.nodes, huffNode{
			freq: b.nodes[l].freq + b.nodes[r].freq,
			sym:  -1, left: l, right: r, order: order,
		})
		order++
		b.push(int32(len(b.nodes) - 1))
	}
	// Depth-first walk with an explicit stack (node index, depth).
	type frame struct {
		n     int32
		depth byte
	}
	var stack [256]frame
	sp := 0
	stack[0] = frame{n: b.idx[0]}
	sp = 1
	for sp > 0 {
		sp--
		f := stack[sp]
		nd := &b.nodes[f.n]
		if nd.sym >= 0 {
			lengths[nd.sym] = f.depth
			continue
		}
		stack[sp] = frame{n: nd.right, depth: f.depth + 1}
		sp++
		stack[sp] = frame{n: nd.left, depth: f.depth + 1}
		sp++
	}
	return lengths
}

// canonicalCodes assigns canonical codes from lengths (shorter codes
// first, ties by symbol value). Symbols of equal length are visited in
// ascending symbol order, so a counting pass per length replaces the
// old sort.
func canonicalCodes(lengths [256]byte) [256]uint32 {
	var count [huffMaxLen + 1]int
	maxLen := 0
	for _, l := range lengths {
		if l > 0 {
			count[l]++
			if int(l) > maxLen {
				maxLen = int(l)
			}
		}
	}
	var codes [256]uint32
	// next[l] is the first canonical code of length l.
	var next [huffMaxLen + 2]uint32
	code := uint32(0)
	for l := 1; l <= maxLen; l++ {
		next[l] = code
		code = (code + uint32(count[l])) << 1
	}
	for s := 0; s < 256; s++ {
		if l := lengths[s]; l > 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// huffMaxLen bounds the code length: codes are built in a uint32, and the
// decoder refuses a table that names a longer one. The encoder stays far
// below it — a leaf at depth d needs total frequency ≥ Fib(d+2), and a
// block's ZRLE stream is ≤ 160 KiB, so no code exceeds 24 bits.
const huffMaxLen = 32

// huffAppendEncode appends the encoded form of src to dst.
func huffAppendEncode(dst, src []byte) []byte {
	var freq [256]int
	for _, b := range src {
		freq[b]++
	}
	lengths := huffLengths(freq)
	codes := canonicalCodes(lengths)
	if cap(dst)-len(dst) < 260 {
		dst = append(dst, make([]byte, 0, 260+len(src)/2)...)
	}
	dst = append(dst, lengths[:]...)
	dst = append(dst,
		byte(len(src)), byte(len(src)>>8), byte(len(src)>>16), byte(len(src)>>24))
	// Canonical codes are MSB-first by construction and the stream is
	// packed LSB-first, so each code is emitted bit-reversed, in one piece.
	var rev [256]uint32
	for s, l := range lengths {
		rev[s] = bits.Reverse32(codes[s]) >> (32 - l) // 0 for an unused symbol
	}
	// The payload's size is known exactly: pack through a 64-bit
	// accumulator straight into place, four bytes at a time, with slack
	// for the last partial word to be stored whole.
	nbits := 0
	for s, f := range freq {
		nbits += f * int(lengths[s])
	}
	base := len(dst)
	dst = growBytes(dst, (nbits+7)/8+4)
	out := dst[base:]
	var acc uint64
	var n uint
	pos := 0
	for _, b := range src {
		acc |= uint64(rev[b]) << n
		n += uint(lengths[b])
		if n >= 32 {
			binary.LittleEndian.PutUint32(out[pos:], uint32(acc))
			pos += 4
			acc >>= 32
			n -= 32
		}
	}
	binary.LittleEndian.PutUint32(out[pos:], uint32(acc))
	return dst[:base+(nbits+7)/8]
}

// huffTableBits is the width of the decoder's primary lookup table. Longer
// codes (symbols of probability below 2^-11) take the bit-by-bit walk.
const huffTableBits = 11

// huffLengthError reports a table naming a code longer than huffMaxLen.
type huffLengthError struct{ sym, length int }

func (e *huffLengthError) Error() string {
	return fmt.Sprintf("compress: huffman code length %d for symbol %d exceeds %d", e.length, e.sym, huffMaxLen)
}

// huffAppendDecode appends the decoded payload to dst. Per code length the
// decoder holds the first canonical code, the symbol count, and an offset
// into a symbol array sorted by (length, symbol). From those it fills the
// primary table: a code of length l occupies the low l bits of the
// lookahead, bit-reversed, and owns every table index ending in them.
// Lengths are filled in ascending order and a taken entry is never
// overwritten, so on a table that is not prefix-free (only a hostile peer
// sends one) the shortest matching code wins, exactly as in the walk.
func huffAppendDecode(dst, src []byte) ([]byte, error) {
	if len(src) < 260 {
		return nil, fmt.Errorf("compress: huffman header truncated")
	}
	lengths := src[:256]
	n := int(binary.LittleEndian.Uint32(src[256:]))
	if n == 0 {
		if dst == nil {
			return []byte{}, nil
		}
		return dst, nil
	}
	var count [huffMaxLen + 1]int32
	maxLen := 0
	for s, l := range lengths {
		if l > huffMaxLen {
			return nil, &huffLengthError{sym: s, length: int(l)}
		}
		if l > 0 {
			count[l]++
			maxLen = max(maxLen, int(l))
		}
	}
	if maxLen == 0 {
		return nil, fmt.Errorf("compress: huffman table empty with %d symbols expected", n)
	}
	data := src[260:]
	if n > 8*len(data) {
		// Every symbol takes at least one bit; refuse before sizing the
		// output from a hostile count.
		return nil, errHuffTruncated
	}
	// first[l]: first canonical code of length l; offset[l]: index of its
	// first symbol in syms (symbols in canonical (length, symbol) order).
	var first [huffMaxLen + 2]uint32
	var offset [huffMaxLen + 2]int32
	var syms [256]byte
	{
		code := uint32(0)
		off := int32(0)
		for l := 1; l <= maxLen; l++ {
			first[l] = code
			offset[l] = off
			code = (code + uint32(count[l])) << 1
			off += count[l]
		}
		next := offset
		for s, l := range lengths {
			if l > 0 {
				syms[next[l]] = byte(s)
				next[l]++
			}
		}
	}
	// Primary table, entry = length<<8 | symbol, 0 = no code this short.
	// An over-subscribed table assigns codes too wide for their length;
	// the walk can never match those, so they get no entry.
	tableBits := min(maxLen, huffTableBits)
	var table [1 << huffTableBits]uint16
	for l := 1; l <= tableBits; l++ {
		for k := int32(0); k < count[l] && first[l]+uint32(k) < 1<<l; k++ {
			entry := uint16(l)<<8 | uint16(syms[offset[l]+k])
			rev := bits.Reverse16(uint16(first[l]+uint32(k))) >> (16 - l)
			for idx := int(rev); idx < 1<<tableBits; idx += 1 << l {
				if table[idx] == 0 {
					table[idx] = entry
				}
			}
		}
	}
	mask := uint64(1)<<tableBits - 1

	base := len(dst)
	dst = growBytes(dst, n)
	out := dst[base:]
	// Bit-reader state: acc holds the next nbits stream bits, LSB first.
	// (After a wide refill acc also carries later stream bits above nbits;
	// the next refill ORs the same bits over them.)
	pos := 0
	var acc uint64
	var nbits uint
	for i := range out {
		if nbits < huffTableBits {
			if pos+8 <= len(data) {
				acc |= binary.LittleEndian.Uint64(data[pos:]) << nbits
				adv := (63 - nbits) >> 3
				pos += int(adv)
				nbits += adv * 8
			} else {
				for ; nbits <= 56 && pos < len(data); pos++ {
					acc |= uint64(data[pos]) << nbits
					nbits += 8
				}
			}
		}
		if e := table[acc&mask]; e != 0 && uint(e>>8) <= nbits {
			out[i] = byte(e)
			acc >>= e >> 8
			nbits -= uint(e >> 8)
			continue
		}
		// Slow path — a code longer than the table is wide, or the last
		// bits of the stream: accumulate the code MSB-first one bit at a
		// time, one compare per bit.
		var code uint32
		for l := 1; ; l++ {
			if nbits == 0 {
				if pos >= len(data) {
					return nil, errHuffTruncated
				}
				acc = uint64(data[pos])
				pos++
				nbits = 8
			}
			code = code<<1 | uint32(acc&1)
			acc >>= 1
			nbits--
			if l > maxLen {
				return nil, fmt.Errorf("compress: huffman bad code")
			}
			if d := int32(code) - int32(first[l]); d >= 0 && d < count[l] {
				out[i] = syms[offset[l]+d]
				break
			}
		}
	}
	return dst, nil
}

var errHuffTruncated = errors.New("compress: huffman stream truncated")
