package edge

import (
	"testing"
	"time"

	"tunable/internal/avis"
	"tunable/internal/compress"
	"tunable/internal/monitor"
)

// The edge benchmarks cover the CPU-bound pieces of the serving path —
// key rendering, cache hit, eviction churn, and trajectory bookkeeping —
// so BENCH_edge.json stays stable across machines (no sockets, no
// goroutine scheduling in the hot loop).

func benchReq(i int) avis.Request {
	return avis.Request{Image: i & 7, X: (i * 13) & 127, Y: (i * 7) & 127, R: 32, PrevR: 16, Level: 2}
}

// keySink keeps the compiler from discarding BenchmarkEdgeCacheKey's work.
var keySink chunkKey

func BenchmarkEdgeCacheKey(b *testing.B) {
	req := benchReq(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = cacheKey("256-4-0123456789abcdef", req, "lzw")
	}
}

func BenchmarkEdgeCacheHit(b *testing.B) {
	c := newChunkCache(1024, 64<<20, time.Hour)
	payload := make([]byte, 4096)
	keys := make([]chunkKey, 256)
	for i := range keys {
		keys[i] = cacheKey("sig", benchReq(i), "lzw")
		c.insert(keys[i], cacheEntry{enc: payload, rawLen: 2 * len(payload)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.lookup(keys[i&255]); !ok {
			b.Fatal("benchmark cache lost an entry")
		}
	}
}

func BenchmarkEdgeCacheChurn(b *testing.B) {
	// Insert over a cache bounded far below the key population, so every
	// insert beyond warmup evicts: the worst-case replacement path.
	c := newChunkCache(128, 1<<30, time.Hour)
	payload := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.insert(cacheKey("sig", avis.Request{Image: i, R: 32, PrevR: 16, Level: 2}, "lzw"), cacheEntry{enc: payload})
	}
}

func BenchmarkEdgeTrackerObserve(b *testing.B) {
	// One fovea step per iteration: trajectory update, prediction, and the
	// (non-blocking, dropped) prewarm enqueue.
	pw := &prewarmer{
		window:   monitor.DefaultTrajectoryWindow,
		teleport: 1 << 20, // never reset: keep the predict path hot
		tasks:    make(chan prewarmTask, 1),
	}
	tr := &foveaTracker{pw: pw, byImage: make(map[int]*imageTrack)}
	lzw, _ := compress.Lookup("lzw")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.observe(avis.Request{Image: 0, X: i & 1023, Y: (i * 3) & 1023, R: 32, PrevR: 16, Level: 2}, lzw)
	}
}
