package lru

import (
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
