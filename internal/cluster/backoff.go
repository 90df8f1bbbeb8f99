package cluster

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff computes jittered exponential retry delays: attempt n (0-based)
// waits Base·Factor^n, capped at Max, with a uniform jitter of ±Jitter
// fraction so a fleet of clients retrying against one recovered
// coordinator does not stampede it. The zero value is usable and means
// "no delay"; DefaultBackoff returns the tuning the control plane uses.
type Backoff struct {
	Base   time.Duration
	Max    time.Duration
	Factor float64
	Jitter float64        // fraction of the computed delay randomized, in [0,1]
	Rand   func() float64 // uniform [0,1); nil uses math/rand (seed for determinism)
}

// DefaultBackoff is the control-plane retry tuning: 25ms base, doubling,
// capped at 1s, with ±50% jitter.
func DefaultBackoff() Backoff {
	return Backoff{Base: 25 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5}
}

// Delay returns the wait before retry attempt n (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	f := b.Factor
	if f < 1 {
		f = 1
	}
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= f
		if b.Max > 0 && d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Max > 0 && d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 {
		r := b.Rand
		if r == nil {
			r = rand.Float64
		}
		// Spread uniformly across [1-Jitter, 1+Jitter]·d, clamped to Max.
		d *= 1 + b.Jitter*(2*r()-1)
		if b.Max > 0 && d > float64(b.Max) {
			d = float64(b.Max)
		}
	}
	return time.Duration(d)
}

// RetryBudget is a token bucket bounding how many retries a component may
// spend: Burst tokens to start, refilled at Rate tokens/second. A budget
// turns a persistent failure into a bounded amount of retry traffic
// instead of an unbounded storm; Allow reports whether one retry may be
// spent. A nil *RetryBudget allows everything.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	burst  float64
	rate   float64
	last   time.Time
	now    func() time.Time // injectable clock for tests
}

// NewRetryBudget creates a budget of burst tokens refilling at rate
// tokens/second (rate 0 never refills).
func NewRetryBudget(burst int, rate float64) *RetryBudget {
	if burst < 0 {
		burst = 0
	}
	return &RetryBudget{tokens: float64(burst), burst: float64(burst), rate: rate, now: time.Now}
}

// Allow consumes one retry token, reporting false when the budget is
// exhausted.
func (rb *RetryBudget) Allow() bool {
	if rb == nil {
		return true
	}
	rb.mu.Lock()
	defer rb.mu.Unlock()
	now := rb.now()
	if !rb.last.IsZero() && rb.rate > 0 {
		rb.tokens += now.Sub(rb.last).Seconds() * rb.rate
		if rb.tokens > rb.burst {
			rb.tokens = rb.burst
		}
	}
	rb.last = now
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}
