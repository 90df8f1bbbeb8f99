package cluster

import (
	"testing"
	"time"
)

func TestBackoffExponentialGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, // capped
	}
	for i, w := range want {
		if d := b.Delay(i); d != w {
			t.Errorf("attempt %d: delay %v, want %v", i, d, w)
		}
	}
}

func TestBackoffJitterDeterministicWithInjectedRand(t *testing.T) {
	mid := Backoff{Base: 100 * time.Millisecond, Factor: 2, Jitter: 0.5,
		Rand: func() float64 { return 0.5 }} // multiplier exactly 1
	if d := mid.Delay(0); d != 100*time.Millisecond {
		t.Errorf("centered jitter: delay %v, want 100ms", d)
	}
	lo := Backoff{Base: 100 * time.Millisecond, Factor: 2, Jitter: 0.5,
		Rand: func() float64 { return 0 }} // multiplier 1-0.5
	if d := lo.Delay(0); d != 50*time.Millisecond {
		t.Errorf("low jitter: delay %v, want 50ms", d)
	}
	hi := Backoff{Base: 100 * time.Millisecond, Max: 120 * time.Millisecond, Factor: 2, Jitter: 0.5,
		Rand: func() float64 { return 1 }} // multiplier 1+0.5, clamped to Max
	if d := hi.Delay(0); d != 120*time.Millisecond {
		t.Errorf("high jitter: delay %v, want clamp to 120ms", d)
	}
}

func TestBackoffZeroValueIsNoDelay(t *testing.T) {
	var b Backoff
	for i := 0; i < 5; i++ {
		if d := b.Delay(i); d != 0 {
			t.Fatalf("zero-value backoff attempt %d: %v, want 0", i, d)
		}
	}
}

func TestRetryBudgetExhaustsAndRefills(t *testing.T) {
	rb := NewRetryBudget(3, 10) // 3 tokens, 10/s refill
	now := time.Unix(1000, 0)
	rb.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !rb.Allow() {
			t.Fatalf("retry %d refused with budget remaining", i)
		}
	}
	if rb.Allow() {
		t.Fatal("retry allowed on an exhausted budget")
	}
	// 200ms at 10 tokens/s refills 2 tokens.
	now = now.Add(200 * time.Millisecond)
	if !rb.Allow() || !rb.Allow() {
		t.Fatal("refilled tokens not granted")
	}
	if rb.Allow() {
		t.Fatal("budget granted more than the refill")
	}
	// Refill never exceeds the burst.
	now = now.Add(time.Hour)
	granted := 0
	for rb.Allow() {
		granted++
	}
	if granted != 3 {
		t.Fatalf("%d retries granted after long idle, want the burst 3", granted)
	}
}

func TestRetryBudgetNilAllowsEverything(t *testing.T) {
	var rb *RetryBudget
	for i := 0; i < 100; i++ {
		if !rb.Allow() {
			t.Fatal("nil budget refused a retry")
		}
	}
}

func TestRetryBudgetZeroRateNeverRefills(t *testing.T) {
	rb := NewRetryBudget(1, 0)
	now := time.Unix(1000, 0)
	rb.now = func() time.Time { return now }
	if !rb.Allow() {
		t.Fatal("first retry refused")
	}
	now = now.Add(time.Hour)
	if rb.Allow() {
		t.Fatal("zero-rate budget refilled")
	}
}
