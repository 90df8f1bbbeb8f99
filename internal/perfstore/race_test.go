package perfstore

import (
	"errors"
	"math"
	"sync"
	"testing"

	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/spec"
)

// countingStore counts backend loads (for single-flight assertions).
type countingStore struct {
	Store
	mu    sync.Mutex
	loads map[string]int
}

func newCountingStore(inner Store) *countingStore {
	return &countingStore{Store: inner, loads: make(map[string]int)}
}

func (s *countingStore) Load(configKey string) (*Profile, error) {
	s.mu.Lock()
	s.loads[configKey]++
	s.mu.Unlock()
	return s.Store.Load(configKey)
}

func (s *countingStore) count(configKey string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads[configKey]
}

// TestConcurrentIngestAndPredict hammers the store from three directions
// at once — ingest goroutines folding samples, reader goroutines
// predicting through the cache, and an eviction goroutine invalidating
// entries mid-flight (racing the single-flight backend load against
// folds). Run under -race; correctness assertions are at the end.
func TestConcurrentIngestAndPredict(t *testing.T) {
	app := testApp(t)
	prior := testPrior(t, app)
	backend := newCountingStore(NewMemStore())
	s, err := New(app, prior, backend, Options{BatchSize: 4, CacheEntries: 2})
	if err != nil {
		t.Fatal(err)
	}

	configs := []spec.Config{cfgOf("lzw", 1), cfgOf("bzw", 1), cfgOf("lzw", 2), cfgOf("bzw", 2)}
	res := resource.Vector{resource.Bandwidth: 100e3}

	const writers, readers, rounds = 4, 4, 200
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cfg := configs[(wi+i)%len(configs)]
				s.Offer(Sample{
					Config:    cfg,
					Resources: res,
					Observed:  spec.Metrics{"time": 50 + float64(i%7), "quality": 0.85},
				})
			}
		}(wi)
	}
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cfg := configs[(ri+i)%len(configs)]
				m, err := s.Predict(cfg, res)
				if err != nil && !errors.Is(err, perfdb.ErrNoProfile) {
					t.Errorf("Predict: %v", err)
					return
				}
				if err == nil {
					if v := m["time"]; math.IsNaN(v) || v <= 0 {
						t.Errorf("Predict returned nonsense time %v", v)
						return
					}
				}
			}
		}(ri)
	}
	// Eviction pressure: invalidate entries while loads and folds are in
	// flight, so single-flight reloads race fold reconciliation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			s.InvalidateCache(configs[i%len(configs)])
		}
	}()
	wg.Wait()
	s.Flush()

	// After the dust settles every config's cached state must equal a
	// fresh materialization of the backend's persisted profile: no lost
	// updates, no stale cache surviving its version.
	for _, cfg := range configs {
		key := cfg.Key()
		s.InvalidateCache(cfg)
		fresh, err := s.Predict(cfg, res)
		if err != nil {
			t.Fatalf("final Predict %s: %v", key, err)
		}
		p, err := backend.Load(key)
		if err != nil {
			t.Fatalf("backend has no profile for %s after ingest: %v", key, err)
		}
		i := p.find(res.Key())
		if i < 0 {
			t.Fatalf("profile %s missing the sampled point", key)
		}
		if got := fresh["time"]; math.Abs(got-p.Records[i].Metrics["time"]) > 1e-9 {
			t.Fatalf("cache/store diverged for %s: cache %v, store %v", key, got, p.Records[i].Metrics["time"])
		}
		if p.Records[i].Samples == 0 {
			t.Fatalf("profile %s folded zero samples", key)
		}
	}
}

// TestSingleFlightLoad proves a cold configuration issues exactly one
// backend load no matter how many Predicts arrive at once.
func TestSingleFlightLoad(t *testing.T) {
	app := testApp(t)
	backend := newCountingStore(NewMemStore())
	s, err := New(app, testPrior(t, app), backend, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgOf("lzw", 1)
	res := resource.Vector{resource.Bandwidth: 100e3}

	const n = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := s.Predict(cfg, res); err != nil {
				t.Errorf("Predict: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := backend.count(cfg.Key()); got != 1 {
		t.Fatalf("cold config issued %d backend loads, want 1 (single-flight)", got)
	}
}

// TestPredictStableWhileFolding reads a warm store from many goroutines
// while a writer keeps folding samples into one lattice point of one
// configuration, so the readers' cache entry is re-materialized — a new
// compiled lattice published — under them (run under -race). Predictions
// at the lattice points the writer never touches, and of the configuration
// it never touches, must not move by a bit; the folded point must have
// moved by the end.
func TestPredictStableWhileFolding(t *testing.T) {
	app := testApp(t)
	s := newTestStore(t, testPrior(t, app), nil, Options{BatchSize: 1})
	folded := resource.Vector{resource.Bandwidth: 100e3}
	type probe struct {
		cfg  spec.Config
		res  resource.Vector
		want spec.Metrics
	}
	probes := []*probe{
		{cfg: cfgOf("lzw", 1), res: resource.Vector{resource.Bandwidth: 50e3}},
		{cfg: cfgOf("lzw", 1), res: resource.Vector{resource.Bandwidth: 200e3}},
		{cfg: cfgOf("lzw", 1), res: resource.Vector{resource.Bandwidth: 400e3}}, // clamps to the 200e3 edge
		{cfg: cfgOf("bzw", 1), res: resource.Vector{resource.Bandwidth: 100e3}},
		{cfg: cfgOf("bzw", 1), res: resource.Vector{resource.Bandwidth: 140e3}},
	}
	for _, p := range probes {
		m, err := s.Predict(p.cfg, p.res)
		if err != nil {
			t.Fatal(err)
		}
		p.want = m
	}
	before, err := s.Predict(cfgOf("lzw", 1), folded)
	if err != nil {
		t.Fatal(err)
	}

	const readers, folds = 6, 300
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := probes[(i+r)%len(probes)]
				got, err := s.Predict(p.cfg, p.res)
				if err != nil {
					t.Errorf("Predict %s at %s: %v", p.cfg.Key(), p.res, err)
					return
				}
				for name, w := range p.want {
					if g, ok := got[name]; !ok || math.Float64bits(g) != math.Float64bits(w) || len(got) != len(p.want) {
						t.Errorf("Predict %s at %s moved while another point was folded: %v, was %v", p.cfg.Key(), p.res, got, p.want)
						return
					}
				}
				if l, err := s.Lattice(p.cfg.Key()); err != nil || len(l.Records()) != 3 {
					t.Errorf("Lattice %s: %v", p.cfg.Key(), err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < folds; i++ {
		s.Offer(Sample{
			Config:    cfgOf("lzw", 1),
			Resources: folded,
			Observed:  spec.Metrics{"time": 60 + float64(i%5), "quality": 0.8},
		})
	}
	close(done)
	wg.Wait()
	after, err := s.Predict(cfgOf("lzw", 1), folded)
	if err != nil {
		t.Fatal(err)
	}
	if after["time"] == before["time"] {
		t.Fatalf("the folded point never moved (time %v): the writer did not re-materialize", after["time"])
	}
}
