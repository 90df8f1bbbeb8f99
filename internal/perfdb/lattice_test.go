package perfdb

import (
	"math"
	"sync"
	"testing"

	"tunable/internal/resource"
	"tunable/internal/spec"
)

// latticeDB profiles cfgN(1..3) over a complete CPU × bandwidth lattice.
func latticeDB(t testing.TB) *DB {
	t.Helper()
	db := New(testApp())
	for n := 1; n <= 3; n++ {
		for _, cpu := range []float64{0.1, 0.2, 0.4, 0.8} {
			for _, bw := range []float64{25e3, 50e3, 100e3, 200e3, 400e3} {
				m := spec.Metrics{"t": float64(n) * 1e6 / bw / cpu, "q": float64(n)}
				if err := db.Add(cfgN(n), resource.Vector{resource.CPU: cpu, resource.Bandwidth: bw}, m); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return db
}

var allocSink spec.Metrics

// TestPredictAllocations gates the model's read path: a prediction
// allocates its result map and nothing else, whether it interpolates,
// sits on a lattice point, clamps outside the lattice or falls back to the
// nearest record, in both modes; into a caller's map it allocates nothing.
func TestPredictAllocations(t *testing.T) {
	// What a two-metric result map costs on this toolchain.
	mapOnly := testing.AllocsPerRun(200, func() {
		m := make(spec.Metrics, 2)
		m["t"], m["q"] = 1, 2
		allocSink = m
	})
	queries := map[string]resource.Vector{
		"inside":      {resource.CPU: 0.3, resource.Bandwidth: 70e3},
		"on-lattice":  {resource.CPU: 0.2, resource.Bandwidth: 100e3},
		"outside":     {resource.CPU: 2, resource.Bandwidth: 1e3},
		"missing-dim": {resource.CPU: 0.3},
		"extra-dim":   {resource.CPU: 0.3, resource.Bandwidth: 70e3, resource.Latency: 0.01},
	}
	db := latticeDB(t)
	cfg := cfgN(2)
	for _, mode := range []PredictMode{Interpolate, NearestOnly} {
		db.SetMode(mode)
		l, err := db.Lattice(cfg.Key())
		if err != nil {
			t.Fatal(err)
		}
		dst := spec.Metrics{}
		for name, q := range queries {
			if n := testing.AllocsPerRun(200, func() {
				m, err := db.Predict(cfg, q)
				if err != nil {
					t.Fatal(err)
				}
				allocSink = m
			}); n > mapOnly {
				t.Errorf("mode %d, %s: DB.Predict allocates %v times, its result map alone %v", mode, name, n, mapOnly)
			}
			if n := testing.AllocsPerRun(200, func() {
				if err := l.PredictInto(q, dst); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("mode %d, %s: PredictInto allocates %v times", mode, name, n)
			}
		}
	}
}

// TestConcurrentFirstReads races readers on a database nobody has queried
// yet, so the lazy compile runs concurrently (meaningful under -race):
// every reader must get the same published lattice and the answers an
// undisturbed database gives.
func TestConcurrentFirstReads(t *testing.T) {
	q := resource.Vector{resource.CPU: 0.3, resource.Bandwidth: 70e3}
	want := map[string]spec.Metrics{}
	calm := latticeDB(t)
	for _, cfg := range calm.Configs() {
		m, err := calm.Predict(cfg, q)
		if err != nil {
			t.Fatal(err)
		}
		want[cfg.Key()] = m
	}
	for round := 0; round < 20; round++ {
		db := latticeDB(t)
		cfgs := db.Configs()
		const readers = 8
		got := make([][]*Lattice, readers)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				<-start
				for i := range cfgs {
					cfg := cfgs[(i+r)%len(cfgs)]
					m, err := db.Predict(cfg, q)
					if err != nil {
						t.Errorf("Predict %s: %v", cfg.Key(), err)
						return
					}
					if err := sameMetrics(m, want[cfg.Key()]); err != nil {
						t.Errorf("Predict %s under a racing compile: %v", cfg.Key(), err)
					}
					if len(db.Records(cfg)) != 20 {
						t.Errorf("Records %s: %d records", cfg.Key(), len(db.Records(cfg)))
					}
				}
				for _, cfg := range cfgs {
					l, err := db.Lattice(cfg.Key())
					if err != nil {
						t.Errorf("Lattice %s: %v", cfg.Key(), err)
						return
					}
					got[r] = append(got[r], l)
				}
			}(r)
		}
		close(start)
		wg.Wait()
		for r := 1; r < readers; r++ {
			for i := range got[0] {
				if i < len(got[r]) && got[r][i] != got[0][i] {
					t.Fatalf("round %d: readers hold different lattices of %s", round, cfgs[i].Key())
				}
			}
		}
	}
}

// TestLatticeAxesMergeNearDuplicates: two samples 1e-12 apart along a kind
// are one lattice point, for interpolation and for whoever walks Axes.
func TestLatticeAxesMergeNearDuplicates(t *testing.T) {
	db := New(testApp())
	for _, p := range []resource.Vector{
		{resource.CPU: 0.2, resource.Bandwidth: 100}, {resource.CPU: 0.2, resource.Bandwidth: 200},
		{resource.CPU: 0.5, resource.Bandwidth: 100}, {resource.CPU: 0.5 * (1 + 1e-12), resource.Bandwidth: 200},
	} {
		if err := db.Add(cfgN(1), p, spec.Metrics{"t": p[resource.CPU] * p[resource.Bandwidth]}); err != nil {
			t.Fatal(err)
		}
	}
	l, err := db.Lattice(cfgN(1).Key())
	if err != nil {
		t.Fatal(err)
	}
	axes := l.Axes()
	if len(axes) != 2 || axes[1].Kind != resource.CPU || len(axes[1].Points) != 2 {
		t.Fatalf("axes %v: want bandwidth then cpu, cpu with two points", axes)
	}
	// All four corners are found, so the centre interpolates.
	m, err := db.Predict(cfgN(1), resource.Vector{resource.CPU: 0.35, resource.Bandwidth: 150})
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.35 * 150; math.Abs(m["t"]-want) > 1e-9 {
		t.Fatalf("t = %v, want the bilinear %v", m["t"], want)
	}
}
