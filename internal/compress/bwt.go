package compress

import (
	"fmt"
	"sync"
)

// saPool recycles the suffix sorter's working memory, one int32 array per
// sort: BZW sorts once per 64 KiB block.
var saPool = sync.Pool{New: func() any { return new([]int32) }}

// bwtAppendForward appends the Burrows–Wheeler transform of data with an
// implicit sentinel (same length as the input) to dst. primary is the row
// at which the (omitted) sentinel character sits.
func bwtAppendForward(dst, data []byte) (out []byte, primary int) {
	n := len(data)
	if n == 0 {
		return dst, 0
	}
	// The sorter's bucket space (see sais), then the suffix array. A suffix
	// that is a proper prefix of another sorts first: their order against
	// a virtual sentinel below every byte, whose own suffix (always row 0)
	// is not stored.
	buf := saPool.Get().(*[]int32)
	defer saPool.Put(buf)
	tmpLen := 2*256 + n
	if cap(*buf) < tmpLen+n {
		*buf = make([]int32, tmpLen+n)
	}
	tmp, sa := (*buf)[:tmpLen], (*buf)[tmpLen:tmpLen+n]
	clear(sa)
	sais(data, 256, sa, tmp)
	base := len(dst)
	dst = growBytes(dst, n)
	out = dst[base:]
	// Row 0, the sentinel's, is preceded by the last byte; row i+1 is
	// suffix sa[i], preceded by data[sa[i]-1] — except the whole text's
	// row, which the sentinel precedes: skipped, and remembered as primary.
	out[0] = data[n-1]
	k := 1
	for i, p := range sa {
		if p == 0 {
			primary = i + 1
			continue
		}
		out[k] = data[p-1]
		k++
	}
	return dst, primary
}

// bwtInvPool recycles the inverse transform's row table.
var bwtInvPool = sync.Pool{New: func() any { return new([]uint32) }}

// bwtAppendInverse inverts bwtAppendForward. The n+1 sorted rows (row
// primary ends in the sentinel) are walked from row 0 through one packed
// table, rows[r] = LF(r)<<8 | L[r]: a byte out per load. A walk that
// reaches the sentinel row early must be refused, and as LF(primary) is
// row 0 it can be back on primary after exactly n steps (whenever row 0's
// cycle length divides n+1), so where it ends proves nothing. The sentinel
// row therefore leads to a trap row that leads to itself, and the walk ends
// on primary only if it got there on its last step.
func bwtAppendInverse(dst, bwt []byte, primary int) ([]byte, error) {
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
	if n > bzwMaxSyms {
		return nil, &bzwBlockSizeError{n}
	}
	// F-column starts: row 0 is the sentinel; byte b's rows start after all
	// smaller bytes. next[b] is the row the next b in L maps to.
	var next [256]uint32
	for _, b := range bwt {
		next[b]++
	}
	s := uint32(1)
	for b, c := range next {
		next[b] = s
		s += c
	}
	buf := bwtInvPool.Get().(*[]uint32)
	defer bwtInvPool.Put(buf)
	if cap(*buf) < n+2 {
		*buf = make([]uint32, n+2)
	}
	rows := (*buf)[:n+2]
	trap := uint32(n + 1)
	for r, b := range bwt[:primary] {
		rows[r] = next[b]<<8 | uint32(b)
		next[b]++
	}
	rows[primary] = trap << 8
	for r, b := range bwt[primary:] {
		rows[primary+1+r] = next[b]<<8 | uint32(b)
		next[b]++
	}
	rows[trap] = trap << 8
	// Row 0 is the sentinel-only suffix; L[0] = last byte of the text.
	base := len(dst)
	dst = growBytes(dst, n)
	out := dst[base:]
	r := uint32(0)
	for k := n - 1; k >= 0; k-- {
		e := rows[r]
		out[k] = byte(e)
		r = e >> 8
	}
	switch r {
	case uint32(primary):
		return dst, nil
	case trap:
		return nil, fmt.Errorf("compress: bwt cycle hit sentinel early")
	}
	return nil, fmt.Errorf("compress: bwt cycle did not close")
}
