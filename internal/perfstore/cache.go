package perfstore

import (
	"sync"
	"time"

	"tunable/internal/lru"
	"tunable/internal/metrics"
	"tunable/internal/perfdb"
)

// cacheEntry is one materialized live profile: the refined overlay loaded
// from the Store plus the compiled lattice of the prior-merged records,
// ready to answer Predict with the full interpolation machinery. Entries load
// single-flight (the once) and are updated in place by folds; the profile
// version gate in apply makes loader/fold races converge on the newest
// state regardless of completion order.
type cacheEntry struct {
	key  string
	once sync.Once

	mu   sync.RWMutex
	err  error           // terminal load error (bad config key, backend failure)
	prof *Profile        // refined overlay (empty profile when store has none)
	lat  *perfdb.Lattice // prior ∪ overlay, overlay winning at shared points; nil when neither has records
}

// apply installs (overlay, materialized lattice) unless the entry already holds
// a newer version. Profile versions increase monotonically under the fold
// stripe locks, so "newest version wins" resolves the race between an
// in-flight backend load returning stale state and a fold that has already
// pushed past it.
func (e *cacheEntry) apply(p *Profile, lat *perfdb.Lattice) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.prof != nil && p.Version < e.prof.Version {
		return
	}
	e.prof, e.lat, e.err = p, lat, nil
}

// profileCache is the read-through cache in front of the Store: an
// lru.Policy of materialized entries behind one mutex, with per-entry
// sync.Once single-flight so a thundering herd of Predicts for a cold
// configuration issues exactly one backend load.
type profileCache struct {
	mu     sync.Mutex
	pol    *lru.Policy[string, *cacheEntry]
	hits   *metrics.Counter
	misses *metrics.Counter
}

func newProfileCache(maxEntries int, ttl time.Duration, now func() time.Duration) *profileCache {
	c := &profileCache{}
	c.pol = lru.New[string, *cacheEntry](lru.Config{
		MaxEntries: maxEntries,
		TTL:        ttl,
		Now:        now,
	}, nil)
	return c
}

// get returns the entry for configKey, loading it single-flight via load
// on a miss. The returned entry is fully loaded (its once has completed).
func (c *profileCache) get(configKey string, load func(string) (*Profile, *perfdb.Lattice, error)) *cacheEntry {
	c.mu.Lock()
	e, ok := c.pol.Get(configKey)
	if !ok {
		e = &cacheEntry{key: configKey}
		c.pol.Put(configKey, e, 1)
		c.misses.Inc()
	} else {
		c.hits.Inc()
	}
	c.mu.Unlock()

	e.once.Do(func() {
		p, lat, err := load(configKey)
		if err != nil {
			e.mu.Lock()
			e.err = err
			e.mu.Unlock()
			// A failed load must not be cached as permanent: drop the
			// entry so the next lookup retries the backend.
			c.mu.Lock()
			if cur, ok := c.pol.Peek(configKey); ok && cur == e {
				c.pol.Remove(configKey)
			}
			c.mu.Unlock()
			return
		}
		e.apply(p, lat)
	})
	return e
}

// peek returns the live entry for configKey without loading or bumping
// recency; folds use it to update warm entries in place.
func (c *profileCache) peek(configKey string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pol.Peek(configKey)
}

// remove drops configKey from the cache (used by tests and by eviction
// races to force a reload).
func (c *profileCache) remove(configKey string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pol.Remove(configKey)
}

// stats reports live entries and total evictions.
func (c *profileCache) stats() (entries int, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pol.Len(), c.pol.Evictions()
}
