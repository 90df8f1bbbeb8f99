package lru

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEntryBoundEvictsLeastRecent(t *testing.T) {
	var evicted []string
	p := New[string, int](Config{MaxEntries: 2}, func(k string, _ int, why Reason) {
		if why == Capacity {
			evicted = append(evicted, k)
		}
	})
	p.Put("a", 1, 1)
	p.Put("b", 2, 1)
	if _, ok := p.Get("a"); !ok { // bump a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	p.Put("c", 3, 1)
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if _, ok := p.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := p.Get("a"); !ok {
		t.Fatal("a (recently used) should survive")
	}
	if p.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", p.Evictions())
	}
}

func TestCostBound(t *testing.T) {
	p := New[string, string](Config{MaxCost: 100}, nil)
	p.Put("a", "x", 60)
	p.Put("b", "y", 30)
	p.Put("c", "z", 40) // cost 130 > 100: a (LRU) goes
	if _, ok := p.Get("a"); ok {
		t.Fatal("a should have been evicted on cost pressure")
	}
	if p.Cost() != 70 {
		t.Fatalf("Cost = %d, want 70", p.Cost())
	}
	// An oversized entry is admitted and evicts everything else.
	p.Put("huge", "H", 500)
	if _, ok := p.Get("huge"); !ok {
		t.Fatal("oversized entry must still be admitted")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d after oversized insert, want 1", p.Len())
	}
}

func TestReplaceSameKey(t *testing.T) {
	replaced := 0
	p := New[string, int](Config{MaxEntries: 4}, func(_ string, _ int, why Reason) {
		if why == Replaced {
			replaced++
		}
	})
	p.Put("k", 1, 10)
	p.Put("k", 2, 20)
	if v, ok := p.Get("k"); !ok || v != 2 {
		t.Fatalf("Get(k) = %d,%v, want 2,true", v, ok)
	}
	if p.Cost() != 20 || p.Len() != 1 || replaced != 1 {
		t.Fatalf("cost=%d len=%d replaced=%d, want 20,1,1", p.Cost(), p.Len(), replaced)
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Duration(0)
	expired := 0
	p := New[string, int](Config{TTL: 100 * time.Millisecond, Now: func() time.Duration { return now }},
		func(_ string, _ int, why Reason) {
			if why == Expired {
				expired++
			}
		})
	p.Put("a", 1, 1)
	now = 50 * time.Millisecond
	if _, ok := p.Get("a"); !ok {
		t.Fatal("a expired too early")
	}
	now = 200 * time.Millisecond
	if _, ok := p.Get("a"); ok {
		t.Fatal("a should have expired")
	}
	if expired != 1 || p.Len() != 0 {
		t.Fatalf("expired=%d len=%d, want 1,0", expired, p.Len())
	}
	// Every expired entry goes on its next Get.
	p.Put("b", 2, 1)
	p.Put("c", 3, 1)
	now += 300 * time.Millisecond
	for _, k := range []string{"b", "c"} {
		if _, ok := p.Get(k); ok {
			t.Fatalf("%s should have expired", k)
		}
	}
	if expired != 3 || p.Len() != 0 {
		t.Fatalf("expired=%d len=%d, want 3,0", expired, p.Len())
	}
}

// TestFillBuildsOnce: callers missing on one key together share one
// build and its value, and the next call is a hit.
func TestFillBuildsOnce(t *testing.T) {
	const callers = 16
	c := NewCache[string, int](Config{MaxEntries: 4}, nil)
	var builds, nbuilt atomic.Int64
	release := make(chan struct{})
	build := func() (int, int64, error) {
		builds.Add(1)
		<-release
		return 42, 1, nil
	}
	var started, done sync.WaitGroup
	vals := make([]int, callers)
	for i := 0; i < callers; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			v, built, err := c.Fill("k", build)
			if err != nil {
				t.Error(err)
			}
			if built {
				nbuilt.Add(1)
			}
			vals[i] = v
		}(i)
	}
	started.Wait()
	// Any interleaving must pass; the pause lets the callers overlap the
	// held build, which is what makes a cache without single-flight fail.
	time.Sleep(20 * time.Millisecond)
	close(release)
	done.Wait()
	if builds.Load() != 1 || nbuilt.Load() != 1 {
		t.Errorf("%d builds, %d callers told they built, for %d concurrent misses; want 1 and 1", builds.Load(), nbuilt.Load(), callers)
	}
	for i, v := range vals {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
	if v, built, err := c.Fill("k", build); v != 42 || built || err != nil || builds.Load() != 1 {
		t.Errorf("after the fill: %d, built %v, %v, %d builds; want a hit", v, built, err, builds.Load())
	}
}

// TestFailedFillCachesNothing: a failed build's error reaches the callers
// that waited on it, nothing is cached, and the next miss builds again.
func TestFailedFillCachesNothing(t *testing.T) {
	c := NewCache[string, int](Config{}, nil)
	boom := errors.New("boom")
	release := make(chan struct{})
	var builds atomic.Int64
	failing := func() (int, int64, error) {
		builds.Add(1)
		<-release
		return 0, 1, boom
	}
	errs := make(chan error, 4)
	for i := 0; i < cap(errs); i++ {
		go func() {
			_, _, err := c.Fill("k", failing)
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Errorf("caller %d: %v, want %v", i, err, boom)
		}
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("a failed build was cached")
	}
	n := builds.Load()
	v, built, err := c.Fill("k", func() (int, int64, error) { builds.Add(1); return 7, 3, nil })
	if v != 7 || !built || err != nil || builds.Load() != n+1 {
		t.Fatalf("after a failure: %d, built %v, %v; want a fresh build of 7", v, built, err)
	}
	c.Inspect(func(p *Policy[string, int]) {
		if p.Len() != 1 || p.Cost() != 3 {
			t.Errorf("len %d cost %d, want 1 entry at the cost build reported (3)", p.Len(), p.Cost())
		}
	})
}

// TestCacheHitAllocatesNothing: a hit, through Get or through Fill, makes
// no allocation.
func TestCacheHitAllocatesNothing(t *testing.T) {
	c := NewCache[int, []byte](Config{MaxEntries: 8}, nil)
	val := make([]byte, 64)
	build := func() ([]byte, int64, error) { return val, int64(len(val)), nil }
	if _, _, err := c.Fill(1, build); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(1); !ok {
			t.Fatal("lost the entry")
		}
		if _, built, _ := c.Fill(1, build); built {
			t.Fatal("a hit built")
		}
	}); n != 0 {
		t.Errorf("%v allocations per hit, want 0", n)
	}
}
