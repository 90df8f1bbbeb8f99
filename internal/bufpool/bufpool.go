// Package bufpool provides size-classed, sync.Pool-backed byte buffers
// shared by the compression codecs and the wavelet chunk codec. The data
// plane (extract → encode → compress → frame) runs the same buffer sizes
// request after request, so recycling them removes per-request garbage on
// the avis server/client hot paths without threading explicit arenas
// through every API.
//
// Discipline: Get(n) returns a slice with len n and at least that
// capacity; Put recycles a buffer previously obtained from Get (or any
// buffer whose capacity is worth keeping). Buffers must not be used after
// Put. Contents are NOT zeroed — callers own initialization.
package bufpool

import (
	"math/bits"
	"sync"
)

// Size classes are powers of two from 1<<minShift to 1<<maxShift. Requests
// above the largest class fall through to plain make and Put drops them,
// so pathological giants never pin pool memory.
const (
	minShift = 6  // 64 B
	maxShift = 24 // 16 MiB
)

var classes [maxShift - minShift + 1]sync.Pool

// classFor returns the index of the smallest class holding n bytes, or -1
// when n exceeds every class.
func classFor(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	c := bits.Len(uint(n - 1)) // ceil(log2(n))
	if c > maxShift {
		return -1
	}
	return c - minShift
}

// Get returns a buffer of length n. The contents are unspecified.
func Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if v := classes[c].Get(); v != nil {
		b := v.(*[]byte)
		return (*b)[:n]
	}
	return make([]byte, n, 1<<(c+minShift))
}

// Put recycles a buffer for a future Get. Buffers with capacities that fit
// no size class (too small or too large) are dropped.
func Put(b []byte) {
	c := cap(b)
	if c < 1<<minShift || c > 1<<maxShift {
		return
	}
	// File the buffer under the largest class it can fully satisfy. The
	// pool's box is allocated here, after the size checks: taking &b would
	// move b to the heap on entry, so a dropped buffer would allocate too.
	box := new([]byte)
	*box = b[:c]
	classes[bits.Len(uint(c))-1-minShift].Put(box)
}
