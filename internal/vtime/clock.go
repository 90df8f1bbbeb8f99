package vtime

import (
	"sync/atomic"
	"time"
)

// SharedClock is a manually-advanced virtual clock safe for concurrent
// use: any number of goroutines may read Now while a driver advances it.
// Unlike the simulation kernel (one runnable process at a time), a
// SharedClock lets truly parallel workers share one virtual timeline —
// the timebase cmd/avis-load drives its session swarm on. The zero value
// is ready at epoch 0.
type SharedClock struct {
	now atomic.Int64 // nanoseconds since epoch
}

// Now reports the current virtual time.
func (c *SharedClock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Advance moves the clock forward by d (never backward; d ≤ 0 is a no-op).
func (c *SharedClock) Advance(d time.Duration) {
	if d > 0 {
		c.now.Add(int64(d))
	}
}
