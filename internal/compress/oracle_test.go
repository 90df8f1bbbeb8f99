package compress

import (
	"encoding/binary"
	"fmt"
)

// The kernels this package shipped before the induced-sorting BWT and the
// table-driven Huffman decoder, kept verbatim as differential oracles: the
// replacements must produce the same bytes, primary index and accept/reject
// decision on every input (differential_test.go).

// Prefix-doubling scratch: five integer arrays of length n+1 plus a
// counting array.
type oracleSAScratch struct {
	sa, rank, tmp, tmp2 []int32
	cnt                 []int32
}

func (s *oracleSAScratch) grow(n int) {
	if cap(s.sa) < n {
		s.sa = make([]int32, n)
		s.rank = make([]int32, n)
		s.tmp = make([]int32, n)
		s.tmp2 = make([]int32, n)
	}
	s.sa = s.sa[:n]
	s.rank = s.rank[:n]
	s.tmp = s.tmp[:n]
	s.tmp2 = s.tmp2[:n]
	// The counting array must cover the initial alphabet (257 symbols plus
	// the sentinel rank 0) and every later rank value (< n).
	cn := n + 1
	if cn < 258 {
		cn = 258
	}
	if cap(s.cnt) < cn {
		s.cnt = make([]int32, cn)
	}
	s.cnt = s.cnt[:cn]
}

// oracleSuffixArray computes the suffix array of data plus a virtual
// sentinel smaller than every byte: len(data)+1 entries, the sentinel
// suffix first.
func oracleSuffixArray(data []byte) []int32 {
	sc := &oracleSAScratch{}
	n := len(data) + 1
	sc.grow(n)
	sa, rank, tmp, newRank, cnt := sc.sa, sc.rank, sc.tmp, sc.tmp2, sc.cnt

	// Initial ranks: byte value + 1, sentinel 0. Counting sort by rank.
	for i := 0; i < n-1; i++ {
		rank[i] = int32(data[i]) + 1
	}
	rank[n-1] = 0
	for i := range cnt {
		cnt[i] = 0
	}
	for i := 0; i < n; i++ {
		cnt[rank[i]]++
	}
	for i := 1; i < 258; i++ {
		cnt[i] += cnt[i-1]
	}
	for i := n - 1; i >= 0; i-- {
		cnt[rank[i]]--
		sa[cnt[rank[i]]] = int32(i)
	}

	for k := 1; ; k *= 2 {
		// Order by the second key (rank[i+k], absent = smallest): suffixes
		// whose second half starts past the end come first, in index order;
		// the rest inherit the previous round's order shifted by k.
		p := 0
		for i := n - k; i < n; i++ {
			tmp[p] = int32(i)
			p++
		}
		for i := 0; i < n; i++ {
			if int(sa[i]) >= k {
				tmp[p] = sa[i] - int32(k)
				p++
			}
		}
		// Stable counting sort by the first key (rank). Rank values are in
		// [0, n); reuse cnt (only the first maxRank+1 entries matter, but
		// clearing n+1 is a linear pass either way).
		for i := 0; i <= n; i++ {
			cnt[i] = 0
		}
		for i := 0; i < n; i++ {
			cnt[rank[i]]++
		}
		for i := 1; i <= n; i++ {
			cnt[i] += cnt[i-1]
		}
		for i := n - 1; i >= 0; i-- {
			s := tmp[i]
			cnt[rank[s]]--
			sa[cnt[rank[s]]] = s
		}
		// Re-rank: adjacent suffixes get the same rank iff both halves
		// match.
		newRank[sa[0]] = 0
		maxRank := int32(0)
		for i := 1; i < n; i++ {
			cur, prev := sa[i], sa[i-1]
			r := newRank[prev]
			if rank[cur] != rank[prev] {
				r++
			} else {
				c2, p2 := int32(-1), int32(-1)
				if int(cur)+k < n {
					c2 = rank[int(cur)+k]
				}
				if int(prev)+k < n {
					p2 = rank[int(prev)+k]
				}
				if c2 != p2 {
					r++
				}
			}
			newRank[cur] = r
			maxRank = r
		}
		rank, newRank = newRank, rank
		if maxRank == int32(n-1) {
			break
		}
	}
	sc.rank, sc.tmp2 = rank, newRank
	return sa
}

// oracleBWTForward is the forward transform over the oracle's array.
func oracleBWTForward(dst, data []byte) (out []byte, primary int) {
	sa := oracleSuffixArray(data)
	out = dst
	for i, p := range sa {
		if p == 0 {
			primary = i
			continue
		}
		out = append(out, data[p-1])
	}
	return out, primary
}

const oracleHuffMaxLen = 255

// oracleHuffDecode is the bit-at-a-time canonical-code walk: per code
// length the first canonical code, the symbol count, and an offset into a
// symbol array sorted by (length, symbol); one compare per code bit. (It
// still names the wrong codec on truncation and accepts lengths up to 255,
// the two defects fixed alongside its replacement.)
func oracleHuffDecode(dst, src []byte) ([]byte, error) {
	if len(src) < 260 {
		return nil, fmt.Errorf("compress: huffman header truncated")
	}
	var lengths [256]byte
	copy(lengths[:], src[:256])
	n := int(src[256]) | int(src[257])<<8 | int(src[258])<<16 | int(src[259])<<24
	if n == 0 {
		if dst == nil {
			return []byte{}, nil
		}
		return dst, nil
	}
	var count [oracleHuffMaxLen + 1]int32
	maxLen := 0
	nsyms := 0
	for _, l := range lengths {
		if l > 0 {
			count[l]++
			nsyms++
			if int(l) > maxLen {
				maxLen = int(l)
			}
		}
	}
	if maxLen == 0 {
		return nil, fmt.Errorf("compress: huffman table empty with %d symbols expected", n)
	}
	// first[l]: first canonical code of length l; offset[l]: index of its
	// first symbol in syms (symbols in canonical (length, symbol) order).
	var first [oracleHuffMaxLen + 2]uint32
	var offset [oracleHuffMaxLen + 2]int32
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
		var next [oracleHuffMaxLen + 1]int32
		copy(next[:], offset[:oracleHuffMaxLen+1])
		for s := 0; s < 256; s++ {
			if l := lengths[s]; l > 0 {
				syms[next[l]] = byte(s)
				next[l]++
			}
		}
	}
	base := len(dst)
	dst = growBytes(dst, n)
	out := dst[base:]
	// Local bit-reader state: bits are consumed LSB-first from the stream
	// and accumulated MSB-first into the running code.
	data := src[260:]
	pos := 0
	var acc uint64
	var bits uint
	for i := 0; i < n; i++ {
		var code uint32
		l := 0
		for {
			if bits == 0 {
				if pos >= len(data) {
					return nil, fmt.Errorf("compress: lzw stream truncated")
				}
				acc = uint64(data[pos])
				pos++
				bits = 8
			}
			code = code<<1 | uint32(acc&1)
			acc >>= 1
			bits--
			l++
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

// The decode kernels this package shipped before the single-load inverse
// BWT, the copy-from-output LZW decoder and the fused ZRLE+MTF pass, kept
// verbatim (minus their pools) as differential oracles.

// oracleBWTInverse inverts bwtAppendForward.
func oracleBWTInverse(dst, bwt []byte, primary int) ([]byte, error) {
	n := len(bwt)
	if n == 0 {
		if dst == nil {
			return []byte{}, nil
		}
		return dst, nil
	}
	if primary < 1 || primary > n {
		return nil, fmt.Errorf("compress: bwt primary index %d out of range", primary)
	}
	// F-column starts: row 0 is the sentinel; byte b's rows start after all
	// smaller bytes.
	var cnt [256]int32
	for _, b := range bwt {
		cnt[b]++
	}
	var start [256]int32
	s := int32(1)
	for b := 0; b < 256; b++ {
		start[b] = s
		s += cnt[b]
	}
	// LF mapping over the n+1 rows (sentinel row maps to row 0).
	lf := make([]int32, n+1)
	var occ [256]int32
	for i := 0; i < primary; i++ {
		b := bwt[i]
		lf[i] = start[b] + occ[b]
		occ[b]++
	}
	lf[primary] = 0
	for i := primary + 1; i <= n; i++ {
		b := bwt[i-1]
		lf[i] = start[b] + occ[b]
		occ[b]++
	}
	// Row 0 is the sentinel-only suffix; L[0] = last byte of the text.
	base := len(dst)
	dst = growBytes(dst, n)
	out := dst[base:]
	r := 0
	for k := n - 1; k >= 0; k-- {
		if r == primary {
			return nil, fmt.Errorf("compress: bwt cycle hit sentinel early")
		}
		j := r
		if r > primary {
			j = r - 1
		}
		out[k] = bwt[j]
		r = int(lf[r])
	}
	if r != primary {
		return nil, fmt.Errorf("compress: bwt cycle did not close")
	}
	return dst, nil
}

// oracleBitReader unpacks codes LSB-first.
type oracleBitReader struct {
	data []byte
	pos  int
	acc  uint64
	bits uint
}

func (r *oracleBitReader) read(width uint) (uint32, error) {
	for r.bits < width {
		if r.pos >= len(r.data) {
			return 0, fmt.Errorf("compress: lzw stream truncated")
		}
		r.acc |= uint64(r.data[r.pos]) << r.bits
		r.pos++
		r.bits += 8
	}
	code := uint32(r.acc & ((1 << width) - 1))
	r.acc >>= width
	r.bits -= width
	return code, nil
}

// oracleLZWDecTable is the decoder dictionary in parent/suffix form: entry c
// (≥ lzwFirstCode) is the string of entry prefix[c] followed by byte
// suffix[c]; strLen[c] caches its expanded length so output space can be
// reserved up front and the string materialized back-to-front in place.
type oracleLZWDecTable struct {
	prefix [lzwMaxCodes]uint16
	suffix [lzwMaxCodes]byte
	strLen [lzwMaxCodes]uint16
}

// oracleLZWDecode is the chain-walking LZW.Decode.
func oracleLZWDecode(src []byte) ([]byte, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("compress: lzw header truncated")
	}
	n := int(binary.LittleEndian.Uint32(src))
	if n == 0 {
		return []byte{}, nil
	}
	r := oracleBitReader{data: src[4:]}
	t := new(oracleLZWDecTable)
	next := uint32(lzwFirstCode)
	width := uint(lzwMinWidth)
	// Cap the speculative preallocation: a malformed header can claim an
	// absurd length, but a genuine LZW stream expands each code (≥ 9 bits)
	// to at most ~4 KiB of output, so anything beyond that bound grows on
	// demand and the length check below rejects the stream.
	pre := n
	if limit := 4096 * (len(src) - 4) * 8 / lzwMinWidth; pre > limit+64 {
		pre = limit + 64
	}
	out := make([]byte, 0, pre)
	prevValid := false
	var prevCode uint32
	for len(out) < n {
		code, err := r.read(width)
		if err != nil {
			return nil, err
		}
		if code == lzwClearCode {
			next = lzwFirstCode
			width = lzwMinWidth
			prevValid = false
			continue
		}
		// Expand the code's string directly into out. The string length is
		// known (1 for literals, cached for dictionary entries), so the
		// bytes are written back-to-front following the prefix chain.
		var sLen int
		start := len(out)
		switch {
		case code < 256:
			sLen = 1
			out = append(out, byte(code))
		case code < next:
			sLen = int(t.strLen[code])
			out = growBytes(out, sLen)
			c := code
			for i := start + sLen - 1; i >= start; i-- {
				if c < 256 {
					out[i] = byte(c)
					continue
				}
				out[i] = t.suffix[c]
				c = uint32(t.prefix[c])
			}
		case code == next && prevValid:
			// The KwKwK case: prev + first byte of prev.
			var pLen int
			if prevCode < 256 {
				pLen = 1
			} else {
				pLen = int(t.strLen[prevCode])
			}
			sLen = pLen + 1
			out = growBytes(out, sLen)
			c := prevCode
			for i := start + pLen - 1; i >= start; i-- {
				if c < 256 {
					out[i] = byte(c)
					continue
				}
				out[i] = t.suffix[c]
				c = uint32(t.prefix[c])
			}
			out[start+sLen-1] = out[start]
		default:
			return nil, fmt.Errorf("compress: lzw bad code %d", code)
		}
		if prevValid && next < lzwMaxCodes {
			t.prefix[next] = uint16(prevCode)
			t.suffix[next] = out[start]
			var pLen uint16
			if prevCode < 256 {
				pLen = 1
			} else {
				pLen = t.strLen[prevCode]
			}
			t.strLen[next] = pLen + 1
			next++
		}
		prevCode = code
		prevValid = true
		// Width growth must track the encoder: the encoder widens after
		// assigning code (1<<width)-1, which the decoder observes one step
		// later (it has one fewer entry at the same point in the stream).
		if next == 1<<width-1 && width < lzwMaxWidth {
			width++
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("compress: lzw length mismatch %d != %d", len(out), n)
	}
	return out, nil
}

// oracleMTFDecodeInto writes the inverse transform of src into dst.
func oracleMTFDecodeInto(dst, src []byte) {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	for i, j := range src {
		b := table[j]
		dst[i] = b
		copy(table[1:int(j)+1], table[:j])
		table[0] = b
	}
}

// oracleZRLEDecode inverts zrleAppendEncode.
func oracleZRLEDecode(dst, src []byte) ([]byte, error) {
	i := 0
	for i < len(src) {
		b := src[i]
		i++
		if b != 0 {
			dst = append(dst, b)
			continue
		}
		run := 0
		for {
			if i >= len(src) {
				return nil, fmt.Errorf("compress: zrle truncated run length")
			}
			c := src[i]
			i++
			run += int(c)
			if c != 255 {
				break
			}
		}
		base := len(dst)
		dst = growBytes(dst, run)
		zero := dst[base:]
		for k := range zero {
			zero[k] = 0
		}
	}
	return dst, nil
}

// oracleBZWDecode is the one-block-at-a-time BZW.Decode over the oracle
// kernels (and the current Huffman decoder, which this change leaves alone).
func oracleBZWDecode(src []byte) ([]byte, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("compress: bzw header truncated")
	}
	total := int(binary.LittleEndian.Uint32(src))
	var out []byte
	off := 4
	for len(out) < total {
		if off+8 > len(src) {
			return nil, fmt.Errorf("compress: bzw block header truncated")
		}
		primary := int(binary.LittleEndian.Uint32(src[off:]))
		plen := int(binary.LittleEndian.Uint32(src[off+4:]))
		off += 8
		if plen < 0 || off+plen > len(src) {
			return nil, fmt.Errorf("compress: bzw block payload truncated")
		}
		zr, err := huffAppendDecode(nil, src[off:off+plen])
		if err != nil {
			return nil, err
		}
		off += plen
		mtf, err := oracleZRLEDecode(nil, zr)
		if err != nil {
			return nil, err
		}
		bwt := make([]byte, len(mtf))
		oracleMTFDecodeInto(bwt, mtf)
		r1, err := oracleBWTInverse(nil, bwt, primary)
		if err != nil {
			return nil, err
		}
		if out, err = rle1AppendDecode(out, r1); err != nil {
			return nil, err
		}
	}
	if len(out) != total {
		return nil, fmt.Errorf("compress: bzw length mismatch %d != %d", len(out), total)
	}
	if off != len(src) {
		return nil, fmt.Errorf("compress: bzw trailing bytes")
	}
	return out, nil
}
