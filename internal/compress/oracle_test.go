package compress

import "fmt"

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
