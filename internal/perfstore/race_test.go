package perfstore

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/spec"
)

// TestConcurrentIngestAndPredict hammers the store from three directions
// at once — ingest goroutines folding samples, reader goroutines
// predicting through the compiled lattices, and an invalidating goroutine
// dropping lattices mid-flight (racing cold compiles against folds). Run
// under -race; correctness assertions are at the end.
func TestConcurrentIngestAndPredict(t *testing.T) {
	app := testApp(t)
	prior := testPrior(t, app)
	store := NewMemStore()
	s, err := New(app, prior, store, Options{BatchSize: 4})
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
	// Invalidate lattices while compiles and folds are in flight, so cold
	// reads race fold republication.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			s.InvalidateCache(configs[i%len(configs)])
		}
	}()
	wg.Wait()
	s.Flush()

	// After the dust settles every config's published lattice must
	// predict what the stored profile says, as must a fresh compile: no
	// lost updates, no stale lattice surviving a newer fold.
	for _, cfg := range configs {
		key := cfg.Key()
		published, err := s.Predict(cfg, res)
		if err != nil {
			t.Fatalf("final Predict %s: %v", key, err)
		}
		s.InvalidateCache(cfg)
		fresh, err := s.Predict(cfg, res)
		if err != nil {
			t.Fatalf("final Predict %s: %v", key, err)
		}
		p, err := store.Load(key)
		if err != nil {
			t.Fatalf("store has no profile for %s after ingest: %v", key, err)
		}
		i := p.find(res.Key())
		if i < 0 {
			t.Fatalf("profile %s missing the sampled point", key)
		}
		want := p.Records[i].Metrics["time"]
		if math.Abs(published["time"]-want) > 1e-9 || math.Abs(fresh["time"]-want) > 1e-9 {
			t.Fatalf("lattice/store diverged for %s: published %v, fresh %v, store %v",
				key, published["time"], fresh["time"], want)
		}
		if p.Records[i].Samples == 0 {
			t.Fatalf("profile %s folded zero samples", key)
		}
	}
}

// TestSingleFlightLoad proves a cold configuration compiles once no
// matter how many readers arrive at once: every concurrent cold Lattice
// call returns the same lattice.
func TestSingleFlightLoad(t *testing.T) {
	app := testApp(t)
	s := newTestStore(t, testPrior(t, app), nil, Options{})
	key := cfgOf("lzw", 1).Key()

	const n = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([]*perfdb.Lattice, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			l, err := s.Lattice(key)
			if err != nil {
				t.Errorf("Lattice: %v", err)
			}
			got[i] = l
		}(i)
	}
	close(start)
	wg.Wait()
	for i, l := range got {
		if l == nil || l != got[0] {
			t.Fatalf("reader %d got lattice %p, reader 0 %p: a cold configuration compiled more than once", i, l, got[0])
		}
	}
}

// TestPredictStableWhileFolding reads a warm store from many goroutines
// while a writer keeps folding samples into one lattice point of one
// configuration, so a new compiled lattice is published under the
// readers (run under -race). Predictions
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

// TestOnRefineMayReadModel: the refinement hook runs after the fold has
// released its locks, so a hook that reads the model — here a cold read
// of the configuration just folded, which compiles under that
// configuration's fold stripe — completes instead of deadlocking.
func TestOnRefineMayReadModel(t *testing.T) {
	app := testApp(t)
	s := newTestStore(t, testPrior(t, app), nil, Options{BatchSize: 1})
	cfg := cfgOf("lzw", 1)
	res := resource.Vector{resource.Bandwidth: 100e3}
	var hooked []float64
	s.OnRefine(func(configKey string, delta float64) {
		s.InvalidateCache(cfg)
		m, err := s.Predict(cfg, res)
		if err != nil {
			t.Errorf("Predict in the hook: %v", err)
			return
		}
		hooked = append(hooked, m["time"])
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Offer(Sample{Config: cfg, Resources: res, Observed: spec.Metrics{"time": 60, "quality": 0.8}})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Offer did not return: the hook deadlocked on the fold stripe")
	}
	if len(hooked) != 1 || hooked[0] == 50 {
		t.Fatalf("hook saw %v; want one read of the refined time (prior 50)", hooked)
	}
}
