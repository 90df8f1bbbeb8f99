package lru

import "sync"

// Cache is a Policy behind its own mutex whose misses are built once. The
// policy and the builds in progress share the one lock, so a miss never
// overlooks a build that just finished.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	pol     *Policy[K, V]
	flights map[K]*flight[V]
}

// flight is one build in progress that concurrent misses wait on.
type flight[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// NewCache creates an empty cache bounded by cfg. onEvict (may be nil)
// runs under the cache's lock for every entry that leaves it.
func NewCache[K comparable, V any](cfg Config, onEvict func(K, V, Reason)) *Cache[K, V] {
	return &Cache[K, V]{pol: New(cfg, onEvict), flights: make(map[K]*flight[V])}
}

// Get returns the value under k, bumping its recency.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pol.Get(k)
}

// Fill returns the value under k, or builds it: build runs once however
// many callers miss on k together, and the others wait for its result.
// Only a successful build is cached, at the cost build reports; a failed
// one's error goes to the callers that waited on it, and the next miss
// builds again. built reports that this call ran build.
func (c *Cache[K, V]) Fill(k K, build func() (V, int64, error)) (v V, built bool, err error) {
	c.mu.Lock()
	if v, ok := c.pol.Get(k); ok {
		c.mu.Unlock()
		return v, false, nil
	}
	if f, ok := c.flights[k]; ok {
		c.mu.Unlock()
		f.wg.Wait()
		return f.val, false, f.err
	}
	f := &flight[V]{}
	f.wg.Add(1)
	c.flights[k] = f
	c.mu.Unlock()

	var cost int64
	f.val, cost, f.err = build()
	c.mu.Lock()
	if f.err == nil {
		c.pol.Put(k, f.val, cost)
	}
	delete(c.flights, k)
	c.mu.Unlock()
	f.wg.Done()
	return f.val, true, f.err
}

// Inspect runs f on the policy under the cache's lock, so what f reads of
// it (Len, Cost, Evictions) and of its caller's state is one snapshot. f
// must not call back into the cache.
func (c *Cache[K, V]) Inspect(f func(*Policy[K, V])) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(c.pol)
}
