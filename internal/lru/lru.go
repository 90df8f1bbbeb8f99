// Package lru is the shared cache-replacement policy core of the repo's
// bounded caches: a recency list with optional TTL expiry, bounded by
// entry count and by total cost (bytes, usually). It is deliberately
// unsynchronized — every consumer (the edge chunk cache, the avis image
// store) already owns a mutex that guards its map plus its single-flight
// bookkeeping, and sharing that lock with the policy avoids a second
// layer of locking on the hot path. The clock is injected so the same
// policy runs under wall time and under the deterministic test clocks.
package lru

import (
	"container/list"
	"time"
)

// Reason says why an entry left the cache; eviction callbacks receive it
// so consumers can count capacity pressure separately from TTL expiry.
type Reason uint8

// Eviction reasons.
const (
	Capacity Reason = iota // evicted to make room (LRU victim)
	Expired                // TTL elapsed
	Replaced               // overwritten by a Put of the same key
)

// String renders the reason for logs and metric labels (a closed set:
// capacity, expired, replaced).
func (r Reason) String() string {
	switch r {
	case Capacity:
		return "capacity"
	case Expired:
		return "expired"
	case Replaced:
		return "replaced"
	}
	return "unknown"
}

// Config bounds a Policy. Zero values disable the corresponding bound.
type Config struct {
	MaxEntries int           // maximum live entries (0 = unlimited)
	MaxCost    int64         // maximum summed entry cost (0 = unlimited)
	TTL        time.Duration // per-entry lifetime from Put (0 = no expiry)
	// Now is the clock TTL expiry reads (monotone duration on any epoch).
	// Required when TTL > 0; ignored otherwise.
	Now func() time.Duration
}

// entry is one cache slot on the recency list.
type entry[K comparable, V any] struct {
	key      K
	val      V
	cost     int64
	storedAt time.Duration
}

// Policy is the LRU+TTL replacement core. Not safe for concurrent use;
// callers hold their own lock across every method.
type Policy[K comparable, V any] struct {
	cfg     Config
	onEvict func(K, V, Reason)
	ll      *list.List // front = most recent
	idx     map[K]*list.Element
	cost    int64
	evicted int64
}

// New creates an empty policy. onEvict (may be nil) runs synchronously
// for every entry that leaves the cache, with the reason.
func New[K comparable, V any](cfg Config, onEvict func(K, V, Reason)) *Policy[K, V] {
	if cfg.TTL > 0 && cfg.Now == nil {
		start := time.Now()
		cfg.Now = func() time.Duration { return time.Since(start) }
	}
	return &Policy[K, V]{
		cfg:     cfg,
		onEvict: onEvict,
		ll:      list.New(),
		idx:     make(map[K]*list.Element),
	}
}

// Len reports the number of live entries.
func (p *Policy[K, V]) Len() int { return p.ll.Len() }

// Cost reports the summed cost of live entries.
func (p *Policy[K, V]) Cost() int64 { return p.cost }

// Evictions reports how many entries have left the cache, for any reason.
func (p *Policy[K, V]) Evictions() int64 { return p.evicted }

// expired reports whether e has outlived the TTL.
func (p *Policy[K, V]) expired(e *entry[K, V]) bool {
	return p.cfg.TTL > 0 && p.cfg.Now()-e.storedAt > p.cfg.TTL
}

// drop unlinks el and fires the eviction callback.
func (p *Policy[K, V]) drop(el *list.Element, why Reason) {
	e := el.Value.(*entry[K, V])
	p.ll.Remove(el)
	delete(p.idx, e.key)
	p.cost -= e.cost
	p.evicted++
	if p.onEvict != nil {
		p.onEvict(e.key, e.val, why)
	}
}

// Get returns the value under k, bumping its recency. A TTL-expired
// entry is dropped and reported as absent.
func (p *Policy[K, V]) Get(k K) (V, bool) {
	var zero V
	el, ok := p.idx[k]
	if !ok {
		return zero, false
	}
	e := el.Value.(*entry[K, V])
	if p.expired(e) {
		p.drop(el, Expired)
		return zero, false
	}
	p.ll.MoveToFront(el)
	return e.val, true
}

// Put inserts (or replaces) the value under k with the given cost, then
// evicts least-recent entries until both bounds hold again. An entry
// larger than MaxCost by itself is still admitted — it just evicts
// everything else — so a pathological bound never silently refuses work.
func (p *Policy[K, V]) Put(k K, v V, cost int64) {
	if el, ok := p.idx[k]; ok {
		p.drop(el, Replaced)
	}
	e := &entry[K, V]{key: k, val: v, cost: cost}
	if p.cfg.TTL > 0 {
		e.storedAt = p.cfg.Now()
	}
	p.idx[k] = p.ll.PushFront(e)
	p.cost += cost
	for p.overfullLocked() {
		back := p.ll.Back()
		if back == nil || back == p.ll.Front() {
			break // never evict the entry just inserted
		}
		p.drop(back, Capacity)
	}
}

// overfullLocked reports whether either bound is exceeded.
func (p *Policy[K, V]) overfullLocked() bool {
	if p.cfg.MaxEntries > 0 && p.ll.Len() > p.cfg.MaxEntries {
		return true
	}
	if p.cfg.MaxCost > 0 && p.cost > p.cfg.MaxCost {
		return true
	}
	return false
}
