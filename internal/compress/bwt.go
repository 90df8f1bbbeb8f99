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

// bwtInvPool recycles the inverse transform's LF-mapping array.
var bwtInvPool = sync.Pool{New: func() any { return new([]int32) }}

// bwtAppendInverse inverts bwtAppendForward.
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
	buf := bwtInvPool.Get().(*[]int32)
	defer bwtInvPool.Put(buf)
	if cap(*buf) < n+1 {
		*buf = make([]int32, n+1)
	}
	lf := (*buf)[:n+1]
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
