// Package edge is the tiered delivery layer of the cluster: an
// intermediary proxy daemon (cmd/avis-edge) that terminates the avis
// frame protocol toward clients, re-speaks it toward an origin server,
// and serves coarse pyramid levels out of a bounded LRU+TTL chunk cache
// while fine levels stream through from origin. Chunks are
// content-addressed — the cache key is (store signature, image, level,
// region, codec), the same signature cluster failover already pins
// sessions on — and held in the form they leave in, compressed for the
// client's codec, so a hit is a lookup and a vectored write and any edge
// fronting the same origin store serves byte-identical replies. Concurrent
// misses for one key collapse into a single origin round (single-flight).
package edge

import (
	"sync"
	"sync/atomic"
	"time"

	"tunable/internal/avis"
	"tunable/internal/lru"
	"tunable/internal/metrics"
)

// chunkKey is the content address of one cached reply. Every field that
// shapes the reply bytes participates: the origin's store signature, the
// region (a request with its Seq zeroed), and the codec the bytes are
// compressed with — the cache holds what goes on the wire, so two clients
// that announced different codecs do not share an entry.
type chunkKey struct {
	sig   string
	req   avis.Request
	codec string
}

func cacheKey(sig string, req avis.Request, codec string) chunkKey {
	req.Seq = 0
	return chunkKey{sig: sig, req: req, codec: codec}
}

// cacheEntry is one cached reply: the chunk encoding compressed under the
// key's codec, exactly sized and read-only once inserted, and its
// pre-compression length (what the segment headers carry).
type cacheEntry struct {
	enc    []byte
	rawLen int
}

// chunkCache is the thread-safe LRU+TTL payload cache of one proxy. Hits
// and misses are counted on the client-serving path (lookup).
type chunkCache struct {
	mu  sync.Mutex
	pol *lru.Policy[chunkKey, cacheEntry]

	hits   atomic.Int64
	misses atomic.Int64

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mHits       *metrics.Counter
	mMisses     *metrics.Counter
	mEvCapacity *metrics.Counter
	mEvExpired  *metrics.Counter
	mHitRatio   *metrics.Gauge
	mEntries    *metrics.Gauge
	mBytes      *metrics.Gauge
}

func newChunkCache(maxEntries int, maxBytes int64, ttl time.Duration) *chunkCache {
	c := &chunkCache{}
	c.pol = lru.New[chunkKey, cacheEntry](lru.Config{
		MaxEntries: maxEntries,
		MaxCost:    maxBytes,
		TTL:        ttl,
	}, func(_ chunkKey, _ cacheEntry, why lru.Reason) {
		switch why {
		case lru.Capacity:
			c.mEvCapacity.Inc()
		case lru.Expired:
			c.mEvExpired.Inc()
		}
	})
	return c
}

// enableMetrics registers the edge_cache_* families. The reason label is
// the closed set {capacity, expired}.
func (c *chunkCache) enableMetrics(reg *metrics.Registry) {
	c.mHits = reg.Counter("edge_cache_hits_total", "Coarse-level requests served from cache.")
	c.mMisses = reg.Counter("edge_cache_misses_total", "Coarse-level requests that needed an origin round.")
	c.mEvCapacity = reg.Counter("edge_cache_evictions_total",
		"Cached chunks evicted, by reason.", metrics.L("reason", "capacity"))
	c.mEvExpired = reg.Counter("edge_cache_evictions_total",
		"Cached chunks evicted, by reason.", metrics.L("reason", "expired"))
	c.mHitRatio = reg.Gauge("edge_cache_hit_ratio", "Lifetime cache hit ratio on coarse-level requests.")
	c.mEntries = reg.Gauge("edge_cache_entries", "Cached chunks currently live.")
	c.mBytes = reg.Gauge("edge_cache_bytes", "Summed compressed bytes of live cached chunks.")
}

// updateGauges refreshes the occupancy and ratio gauges; callers hold mu.
func (c *chunkCache) updateGauges() {
	c.mEntries.Set(float64(c.pol.Len()))
	c.mBytes.Set(float64(c.pol.Cost()))
	h, m := c.hits.Load(), c.misses.Load()
	if h+m > 0 {
		c.mHitRatio.Set(float64(h) / float64(h+m))
	}
}

// lookup is the serving-path read: it bumps recency and the hit/miss
// stats.
func (c *chunkCache) lookup(key chunkKey) (cacheEntry, bool) {
	c.mu.Lock()
	e, ok := c.pol.Get(key)
	if ok {
		c.hits.Add(1)
		c.mHits.Inc()
	} else {
		c.misses.Add(1)
		c.mMisses.Inc()
	}
	c.updateGauges()
	c.mu.Unlock()
	return e, ok
}

// insert stores one reply. The cache owns e.enc from here on; it must not
// be pooled or mutated by the caller.
func (c *chunkCache) insert(key chunkKey, e cacheEntry) {
	c.mu.Lock()
	c.pol.Put(key, e, int64(len(e.enc)))
	c.updateGauges()
	c.mu.Unlock()
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits, Misses int64
	Entries      int
	Bytes        int64
	Evictions    int64
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

func (c *chunkCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Entries:   c.pol.Len(),
		Bytes:     c.pol.Cost(),
		Evictions: c.pol.Evictions(),
	}
}
