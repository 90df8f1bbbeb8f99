package scheduler

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tunable/internal/resource"
)

func testArbiter(t *testing.T, pool resource.Vector, shares ...ClassShare) *Arbiter {
	t.Helper()
	a, err := NewArbiter(pool, shares)
	if err != nil {
		t.Fatalf("NewArbiter: %v", err)
	}
	return a
}

func TestArbiterValidation(t *testing.T) {
	if _, err := NewArbiter(nil, []ClassShare{{Class: "a", Weight: 1}}); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := NewArbiter(resource.Vector{resource.CPU: 0}, []ClassShare{{Class: "a", Weight: 1}}); err == nil {
		t.Error("zero pool accepted")
	}
	if _, err := NewArbiter(resource.Vector{resource.CPU: 1}, nil); err == nil {
		t.Error("no classes accepted")
	}
	if _, err := NewArbiter(resource.Vector{resource.CPU: 1}, []ClassShare{{Class: "a", Weight: 0}}); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := NewArbiter(resource.Vector{resource.CPU: 1},
		[]ClassShare{{Class: "a", Weight: 1}, {Class: "a", Weight: 1}}); err == nil {
		t.Error("duplicate class accepted")
	}
}

func TestArbiterGuaranteeSplit(t *testing.T) {
	a := testArbiter(t, resource.Vector{resource.Bandwidth: 900e3},
		ClassShare{Class: "video", Weight: 2}, ClassShare{Class: "foveal", Weight: 1})
	g, err := a.Guarantee("video")
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Get(resource.Bandwidth, 0); got != 600e3 {
		t.Errorf("video guarantee = %g, want 600e3", got)
	}
	g, _ = a.Guarantee("foveal")
	if got := g.Get(resource.Bandwidth, 0); got != 300e3 {
		t.Errorf("foveal guarantee = %g, want 300e3", got)
	}
	if _, err := a.Guarantee("nope"); err == nil {
		t.Error("unknown class accepted")
	}
}

// TestArbiterGuaranteeProtected is the no-starvation property: after one
// class greedily borrows everything it can, the other class can still
// acquire its full guarantee.
func TestArbiterGuaranteeProtected(t *testing.T) {
	a := testArbiter(t, resource.Vector{resource.Bandwidth: 1000e3},
		ClassShare{Class: "video", Weight: 1}, ClassShare{Class: "foveal", Weight: 1})

	// Video grabs in 100 KB/s bites until refused.
	var grabbed int
	for {
		if _, err := a.Acquire("video", resource.Vector{resource.Bandwidth: 100e3}); err != nil {
			break
		}
		grabbed++
	}
	// Work-conserving: with foveal idle, video must borrow past its 500
	// KB/s guarantee but must stop at pool - foveal's guarantee.
	if grabbed != 5 {
		t.Fatalf("video grabbed %d x 100KB/s, want 5 (own guarantee, foveal idle guarantee protected)", grabbed)
	}
	// Foveal's entire guarantee must still be acquirable.
	for i := 0; i < 5; i++ {
		if _, err := a.Acquire("foveal", resource.Vector{resource.Bandwidth: 100e3}); err != nil {
			t.Fatalf("foveal acquisition %d within its guarantee refused: %v", i, err)
		}
	}
	if !a.Contended() {
		t.Error("both classes active but Contended() = false")
	}
}

// TestArbiterBorrowsWhenIdle: when the other class holds nothing, its
// guarantee is still owed — borrowing beyond own-guarantee must stop at
// pool minus the other's guarantee, and releasing returns the headroom.
func TestArbiterReleaseReturnsCapacity(t *testing.T) {
	a := testArbiter(t, resource.Vector{resource.Bandwidth: 1000e3},
		ClassShare{Class: "video", Weight: 1}, ClassShare{Class: "foveal", Weight: 1})
	g1, err := a.Acquire("video", resource.Vector{resource.Bandwidth: 500e3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire("video", resource.Vector{resource.Bandwidth: 400e3}); err == nil {
		t.Fatal("acquisition invading foveal's guarantee admitted")
	}
	a.Release(g1)
	a.Release(g1) // idempotent
	if got := a.Used("video").Get(resource.Bandwidth, 0); got != 0 {
		t.Fatalf("used after release = %g, want 0", got)
	}
	if _, err := a.Acquire("video", resource.Vector{resource.Bandwidth: 500e3}); err != nil {
		t.Fatalf("re-acquire after release refused: %v", err)
	}
}

func TestArbiterRejectsUnpooledAndNegative(t *testing.T) {
	a := testArbiter(t, resource.Vector{resource.Bandwidth: 1000e3},
		ClassShare{Class: "video", Weight: 1})
	if _, err := a.Acquire("video", resource.Vector{resource.CPU: 0.1}); err == nil {
		t.Error("unpooled resource accepted")
	}
	if _, err := a.Acquire("video", resource.Vector{resource.Bandwidth: -1}); err == nil {
		t.Error("negative want accepted")
	}
	if _, err := a.Acquire("ghost", resource.Vector{resource.Bandwidth: 1}); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestArbiterPlanningCapacity(t *testing.T) {
	a := testArbiter(t, resource.Vector{resource.Bandwidth: 1000e3},
		ClassShare{Class: "video", Weight: 1}, ClassShare{Class: "foveal", Weight: 1})

	// Uncontended: observations pass through untouched.
	obs := resource.Vector{resource.Bandwidth: 900e3, resource.CPU: 0.4}
	if got := a.PlanningCapacity("video", obs).Get(resource.Bandwidth, 0); got != 900e3 {
		t.Errorf("uncontended planning capacity = %g, want 900e3", got)
	}

	gv, _ := a.Acquire("video", resource.Vector{resource.Bandwidth: 300e3})
	gf, _ := a.Acquire("foveal", resource.Vector{resource.Bandwidth: 300e3})
	defer a.Release(gv)
	defer a.Release(gf)

	// Contended: guarantee (500e3) + idle (400e3) = 900e3 caps the plan.
	got := a.PlanningCapacity("video", resource.Vector{resource.Bandwidth: 950e3, resource.CPU: 0.4})
	if bw := got.Get(resource.Bandwidth, 0); bw != 900e3 {
		t.Errorf("contended planning bandwidth = %g, want 900e3", bw)
	}
	// Unpooled kinds pass through.
	if cpu := got.Get(resource.CPU, 0); cpu != 0.4 {
		t.Errorf("unpooled CPU derated: %g, want 0.4", cpu)
	}
	// Observations below the clamp are kept (never plan above probes).
	got = a.PlanningCapacity("video", resource.Vector{resource.Bandwidth: 100e3})
	if bw := got.Get(resource.Bandwidth, 0); bw != 100e3 {
		t.Errorf("low observation raised to %g, want 100e3", bw)
	}
}

// TestArbiterSharesHoldUnderChurn hammers the arbiter from parallel
// goroutines (meaningful under -race) and checks the invariants that make
// arbitration safe: total holdings never exceed the pool, an acquisition
// that keeps its class within its guarantee is never refused, and
// everything released drains to zero.
//
// Two workers share each class and classes may borrow idle capacity, so
// whether a refusal is legitimate depends on what the *class* holds, not
// the worker: a sibling can hold the whole guarantee (and more). Each class
// therefore has a test-side mutex held across its Acquire and Release
// calls, which makes the class's tracked holdings exact at the moment of
// every acquisition; workers of different classes still run the arbiter
// concurrently.
func TestArbiterSharesHoldUnderChurn(t *testing.T) {
	const (
		pool    = 1000e3
		classes = 4
		workers = 8
		iters   = 2000
		bite    = 25e3 // every quantity is a multiple of it: the sums are exact
	)
	shares := make([]ClassShare, classes)
	names := []string{"a", "b", "c", "d"}
	for i := range shares {
		shares[i] = ClassShare{Class: names[i], Weight: 1}
	}
	a := testArbiter(t, resource.Vector{resource.Bandwidth: pool}, shares...)
	guarantee := pool / classes

	type classHoldings struct {
		mu   sync.Mutex
		held float64 // what the class's workers hold, exact under mu
	}
	holdings := make([]classHoldings, classes)
	// grants counts acquisitions after they succeed and releases before
	// they happen, so it never exceeds what the arbiter really has out:
	// seeing it above the pool proves an over-commit.
	var grants atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			class, ch := names[w%classes], &holdings[w%classes]
			var held []*ClassGrant
			release := func() {
				g := held[len(held)-1]
				held = held[:len(held)-1]
				ch.mu.Lock()
				defer ch.mu.Unlock()
				grants.Add(-1)
				a.Release(g)
				ch.held -= bite
			}
			defer func() {
				for len(held) > 0 {
					release()
				}
			}()
			for i := 0; i < iters; i++ {
				if len(held) > 0 && rng.Intn(2) == 0 {
					release()
					continue
				}
				ch.mu.Lock()
				g, err := a.Acquire(class, resource.Vector{resource.Bandwidth: bite})
				before := ch.held
				if err == nil {
					ch.held += bite
					if n := grants.Add(1); float64(n)*bite > pool {
						t.Errorf("%d grants of %g out: over the pool of %g", n, float64(bite), float64(pool))
					}
				}
				ch.mu.Unlock()
				if err != nil {
					if before+bite <= guarantee {
						t.Errorf("class %s refused within its guarantee (held %g of %g): %v", class, before, guarantee, err)
						return
					}
					continue
				}
				held = append(held, g)
			}
		}()
	}
	wg.Wait()
	// Everything released: holdings drain to zero.
	if n := grants.Load(); n != 0 {
		t.Errorf("%d grants still counted after full release", n)
	}
	for _, c := range a.Classes() {
		if got := a.Used(c).Get(resource.Bandwidth, 0); got != 0 {
			t.Errorf("class %s still holds %g after full release", c, got)
		}
		if n := a.Active(c); n != 0 {
			t.Errorf("class %s still has %d active grants", c, n)
		}
	}
}
