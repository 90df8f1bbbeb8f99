package perfstore

import (
	"testing"
	"time"

	"tunable/internal/resource"
	"tunable/internal/spec"
)

// benchStore builds a store over the test prior with a few refinements
// already folded, so the lookup benchmarks exercise the merged
// (prior ∪ overlay) lattice rather than a trivial pass-through.
func benchStore(b *testing.B) *PerfStore {
	b.Helper()
	app := testApp(b)
	s := newTestStore(b, testPrior(b, app), nil, Options{BatchSize: 1})
	for i := 0; i < 8; i++ {
		s.Offer(Sample{
			Config:    cfgOf("lzw", 1),
			Resources: resource.Vector{resource.Bandwidth: 100e3},
			Observed:  spec.Metrics{"time": 60 + float64(i), "quality": 0.8},
			At:        time.Duration(i) * time.Second,
			Source:    "bench",
		})
	}
	return s
}

// BenchmarkPerfdbPredict measures the lookup underneath every store read:
// one interpolated prediction from the static profiled database, compiled
// lattice warm.
func BenchmarkPerfdbPredict(b *testing.B) {
	db := testPrior(b, testApp(b))
	cfg := cfgOf("lzw", 1)
	res := resource.Vector{resource.Bandwidth: 120e3}
	if _, err := db.Predict(cfg, res); err != nil { // compile the lattice
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Predict(cfg, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfstoreCachedPredict measures the hot read path: Predict
// through the configuration's compiled lattice.
func BenchmarkPerfstoreCachedPredict(b *testing.B) {
	s := benchStore(b)
	cfg := cfgOf("lzw", 1)
	res := resource.Vector{resource.Bandwidth: 120e3}
	if _, err := s.Predict(cfg, res); err != nil { // warm the entry
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Predict(cfg, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfstoreUncachedPredict measures the cold read path: every
// lookup drops the compiled lattice first, so each Predict pays the store
// load plus the merged-lattice compile a warm read skips.
func BenchmarkPerfstoreUncachedPredict(b *testing.B) {
	s := benchStore(b)
	cfg := cfgOf("lzw", 1)
	res := resource.Vector{resource.Bandwidth: 120e3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InvalidateCache(cfg)
		if _, err := s.Predict(cfg, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfstoreIngest measures sustained ingest throughput: filter,
// fold, save (memory store), and lattice recompile per sample.
func BenchmarkPerfstoreIngest(b *testing.B) {
	s := benchStore(b)
	cfg := cfgOf("bzw", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Offer(Sample{
			Config:    cfg,
			Resources: resource.Vector{resource.Bandwidth: 50e3},
			Observed:  spec.Metrics{"time": 40 + float64(i%5), "quality": 0.9},
			At:        time.Duration(i) * time.Millisecond,
			Source:    "bench",
		})
	}
	s.Flush()
}
