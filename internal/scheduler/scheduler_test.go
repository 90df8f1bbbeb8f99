package scheduler

import (
	"math"
	"testing"

	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/spec"
)

// codecApp mirrors the Figure 6(a) situation: two codecs whose transmission
// times cross over as bandwidth varies.
func codecApp() *spec.App {
	return spec.MustParse(`
app codec_demo;
control_parameters {
    enum c in {lzw, bzw};
    int l in {3, 4};
}
qos_metric {
    duration transmit_time minimize;
    scalar resolution maximize;
}
`)
}

// buildDB populates transmit_time = data(l)/ratio(c)/bw + cpu(c), the
// pipelined-transfer shape that creates the crossover.
func buildDB(t *testing.T, app *spec.App) *perfdb.DB {
	t.Helper()
	db := perfdb.New(app)
	for _, c := range []string{"lzw", "bzw"} {
		for _, l := range []int{3, 4} {
			data := 1e6
			if l == 3 {
				data = 0.25e6
			}
			ratio, cpu := 2.0, 1.0
			if c == "bzw" {
				ratio, cpu = 4.0, 8.0
			}
			for _, bw := range []float64{25e3, 50e3, 100e3, 250e3, 500e3, 1000e3} {
				tt := math.Max(data/ratio/bw, cpu)
				cfg := spec.Config{"c": spec.Enum(c), "l": spec.Int(l)}
				err := db.Add(cfg, resource.Vector{resource.Bandwidth: bw},
					spec.Metrics{"transmit_time": tt, "resolution": float64(l)})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return db
}

func TestSelectPicksObjectiveOptimum(t *testing.T) {
	app := codecApp()
	db := buildDB(t, app)
	s, err := New(app, db, []Preference{{
		Name:        "fast",
		Constraints: []Constraint{AtLeast("resolution", 4)},
		Objective:   "transmit_time",
	}})
	if err != nil {
		t.Fatal(err)
	}
	// High bandwidth: lzw wins (transfer fast, bzw CPU-bound).
	d, err := s.Select(resource.Vector{resource.Bandwidth: 500e3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Config["c"].S != "lzw" {
		t.Fatalf("at 500 KB/s chose %s", d.Config.Key())
	}
	// Low bandwidth: bzw wins (better ratio).
	d, err = s.Select(resource.Vector{resource.Bandwidth: 50e3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Config["c"].S != "bzw" {
		t.Fatalf("at 50 KB/s chose %s", d.Config.Key())
	}
	if d.Preference != 0 || d.PrefName != "fast" {
		t.Fatalf("decision %+v", d)
	}
}

func TestConstraintsPrune(t *testing.T) {
	app := codecApp()
	db := buildDB(t, app)
	// Deadline of 3 s at 50 KB/s: l=4 takes ≥8s (bzw cpu) or 10s (lzw
	// transfer); l=3 with lzw takes 2.5s. Maximize resolution subject to
	// the deadline → l=3.
	s, err := New(app, db, []Preference{{
		Name:        "deadline",
		Constraints: []Constraint{AtMost("transmit_time", 3)},
		Objective:   "resolution",
	}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Select(resource.Vector{resource.Bandwidth: 50e3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Config["l"].I != 3 {
		t.Fatalf("chose %s", d.Config.Key())
	}
	if d.Predicted["transmit_time"] > 3 {
		t.Fatalf("predicted %v violates constraint", d.Predicted)
	}
}

func TestPreferenceFallback(t *testing.T) {
	app := codecApp()
	db := buildDB(t, app)
	s, err := New(app, db, []Preference{
		{
			Name:        "impossible",
			Constraints: []Constraint{AtMost("transmit_time", 0.001)},
			Objective:   "resolution",
		},
		{
			Name:      "fallback",
			Objective: "transmit_time",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Select(resource.Vector{resource.Bandwidth: 100e3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Preference != 1 || d.PrefName != "fallback" {
		t.Fatalf("decision %+v", d)
	}
}

func TestNoFeasible(t *testing.T) {
	app := codecApp()
	db := buildDB(t, app)
	s, _ := New(app, db, []Preference{{
		Name:        "impossible",
		Constraints: []Constraint{AtMost("transmit_time", 0.0001)},
		Objective:   "resolution",
	}})
	if _, err := s.Select(resource.Vector{resource.Bandwidth: 100e3}); err != ErrNoFeasible {
		t.Fatalf("err %v", err)
	}
}

func TestInterpolatedSelection(t *testing.T) {
	app := codecApp()
	db := buildDB(t, app)
	s, _ := New(app, db, []Preference{{
		Name:      "fast",
		Objective: "transmit_time",
	}})
	// 75 KB/s is between lattice points; interpolation must still answer.
	d, err := s.Select(resource.Vector{resource.Bandwidth: 75e3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Config["l"].I != 3 {
		t.Fatalf("chose %s", d.Config.Key())
	}
}

func TestValidRanges(t *testing.T) {
	app := codecApp()
	db := buildDB(t, app)
	s, _ := New(app, db, []Preference{{
		Name:        "deadline",
		Constraints: []Constraint{AtMost("transmit_time", 3)},
		Objective:   "resolution",
	}})
	d, err := s.Select(resource.Vector{resource.Bandwidth: 500e3})
	if err != nil {
		t.Fatal(err)
	}
	band, ok := d.ValidRanges[resource.Bandwidth]
	if !ok {
		t.Fatalf("no bandwidth band in %+v", d.ValidRanges)
	}
	// The chosen config (lzw l=4: 0.5e6/bw) satisfies ≤3 s down to
	// ~167 KB/s; the lattice run is [250e3, +inf).
	if band[0] != 250e3 {
		t.Fatalf("band lo %v, want 250e3", band[0])
	}
	if !math.IsInf(band[1], 1) {
		t.Fatalf("band hi %v, want +Inf (open at lattice edge)", band[1])
	}
}

func TestValidRangeOpenBothEnds(t *testing.T) {
	app := codecApp()
	db := buildDB(t, app)
	s, _ := New(app, db, []Preference{{
		Name:      "anything",
		Objective: "transmit_time",
	}})
	d, err := s.Select(resource.Vector{resource.Bandwidth: 100e3})
	if err != nil {
		t.Fatal(err)
	}
	band := d.ValidRanges[resource.Bandwidth]
	if !math.IsInf(band[0], -1) || !math.IsInf(band[1], 1) {
		t.Fatalf("unconstrained preference should yield open band, got %v", band)
	}
}

func TestGuardsPruneCandidates(t *testing.T) {
	app := codecApp()
	app.Tasks = append(app.Tasks, spec.Task{
		Name:  "main",
		Guard: spec.MustParseExpr("l >= 4"),
	})
	db := buildDB(t, app)
	s, err := New(app, db, []Preference{{Name: "p", Objective: "transmit_time"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Candidates()); got != 2 {
		t.Fatalf("%d candidates, want 2 (l=4 only)", got)
	}
	d, err := s.Select(resource.Vector{resource.Bandwidth: 500e3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Config["l"].I != 4 {
		t.Fatalf("guard violated: %s", d.Config.Key())
	}
}

func TestNewValidation(t *testing.T) {
	app := codecApp()
	db := buildDB(t, app)
	if _, err := New(app, db, nil); err == nil {
		t.Fatal("no preferences accepted")
	}
	if _, err := New(app, db, []Preference{{Objective: "bogus"}}); err == nil {
		t.Fatal("bad objective accepted")
	}
	if _, err := New(app, db, []Preference{{
		Objective:   "transmit_time",
		Constraints: []Constraint{AtMost("bogus", 1)},
	}}); err == nil {
		t.Fatal("bad constraint metric accepted")
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	app := spec.MustParse(`
app tie;
control_parameters { int n in {1, 2}; }
qos_metric { duration t minimize; }
`)
	db := perfdb.New(app)
	for _, n := range []int{1, 2} {
		db.Add(spec.Config{"n": spec.Int(n)}, resource.Vector{resource.CPU: 0.5}, spec.Metrics{"t": 1.0})
	}
	s, _ := New(app, db, []Preference{{Name: "p", Objective: "t"}})
	for i := 0; i < 5; i++ {
		d, err := s.Select(resource.Vector{resource.CPU: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if d.Config.Key() != "n=1" {
			t.Fatalf("tie broken to %s", d.Config.Key())
		}
	}
}

func TestConstraintHelpers(t *testing.T) {
	c := AtMost("t", 5)
	if !c.Satisfied(5) || c.Satisfied(5.1) {
		t.Fatal("AtMost")
	}
	c = AtLeast("t", 2)
	if !c.Satisfied(2) || c.Satisfied(1.9) {
		t.Fatal("AtLeast")
	}
	c = Constraint{Metric: "t", Lo: 1, Hi: 2}
	if !c.Satisfied(1.5) || c.Satisfied(0.5) || c.Satisfied(2.5) {
		t.Fatal("range")
	}
}

// gappyModel wraps a perfdb.Model but reports ErrNoProfile for a chosen
// set of configurations — the shape of a live store that is still cold for
// some candidates.
type gappyModel struct {
	perfdb.Model
	missing map[string]bool
}

func (g *gappyModel) Predict(cfg spec.Config, res resource.Vector) (spec.Metrics, error) {
	if g.missing[cfg.Key()] {
		return nil, perfdb.ErrNoProfile
	}
	return g.Model.Predict(cfg, res)
}

func (g *gappyModel) Records(cfg spec.Config) []*perfdb.Record {
	if g.missing[cfg.Key()] {
		return nil
	}
	return g.Model.Records(cfg)
}

func (g *gappyModel) Lattice(configKey string) (*perfdb.Lattice, error) {
	if g.missing[configKey] {
		return nil, perfdb.ErrNoProfile
	}
	return g.Model.Lattice(configKey)
}

// TestSelectSkipsNoProfileCandidates proves the scheduler degrades
// gracefully over a model with profile gaps: candidates reporting the
// typed perfdb.ErrNoProfile are skipped (not fatal), and the decision
// falls back to the best profiled candidate.
func TestSelectSkipsNoProfileCandidates(t *testing.T) {
	app := codecApp()
	db := buildDB(t, app)
	pref := []Preference{{
		Name:        "fast",
		Constraints: []Constraint{AtLeast("resolution", 4)},
		Objective:   "transmit_time",
	}}

	// Baseline: at high bandwidth the full model picks lzw.
	full, err := New(app, db, pref)
	if err != nil {
		t.Fatal(err)
	}
	d, err := full.Select(resource.Vector{resource.Bandwidth: 500e3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Config["c"].S != "lzw" {
		t.Fatalf("baseline chose %s", d.Config.Key())
	}

	// Knock the winner's profile out: the scheduler must fall back to the
	// remaining profiled candidate rather than fail.
	gappy := &gappyModel{Model: db, missing: map[string]bool{d.Config.Key(): true}}
	s, err := New(app, gappy, pref)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Select(resource.Vector{resource.Bandwidth: 500e3})
	if err != nil {
		t.Fatalf("gap in model must not be fatal: %v", err)
	}
	if d2.Config.Equal(d.Config) {
		t.Fatalf("scheduler selected the profile-less candidate %s", d2.Config.Key())
	}
	if d2.Config["c"].S != "bzw" {
		t.Fatalf("fallback chose %s, want the bzw candidate", d2.Config.Key())
	}

	// All profiles gone: now it is ErrNoFeasible, still not a panic.
	all := map[string]bool{}
	for _, c := range full.Candidates() {
		all[c.Key()] = true
	}
	empty, err := New(app, &gappyModel{Model: db, missing: all}, pref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Select(resource.Vector{resource.Bandwidth: 500e3}); err != ErrNoFeasible {
		t.Fatalf("fully cold model: got %v, want ErrNoFeasible", err)
	}
}

// sweepDB profiles the codec app's four configurations at n bandwidth
// values × two CPU shares; lzw l=4 is the fastest level-4 configuration
// everywhere, so a decision's validity walk crosses the whole lattice.
func sweepDB(t testing.TB, app *spec.App, n int) *perfdb.DB {
	t.Helper()
	db := perfdb.New(app)
	for _, c := range []string{"lzw", "bzw"} {
		for _, l := range []int{3, 4} {
			for _, bw := range resource.Logspace(10e3, 1000e3, n) {
				for _, cpu := range []float64{0.5, 1} {
					tt := float64(l) * 1e5 / bw / cpu
					if c == "bzw" {
						tt *= 2
					}
					cfg := spec.Config{"c": spec.Enum(c), "l": spec.Int(l)}
					err := db.Add(cfg, resource.Vector{resource.Bandwidth: bw, resource.CPU: cpu},
						spec.Metrics{"transmit_time": tt, "resolution": float64(l)})
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return db
}

// TestSelectAllocationsIndependentOfLattice gates the decision path: a
// Select allocates its working state and its result — a constant — however
// many lattice points the candidates were profiled at and the validity
// walk visits.
func TestSelectAllocationsIndependentOfLattice(t *testing.T) {
	app := codecApp()
	prefs := []Preference{
		{Name: "sharp", Constraints: []Constraint{AtLeast("resolution", 4)}, Objective: "transmit_time"},
		{Name: "fast", Objective: "transmit_time"},
	}
	res := resource.Vector{resource.Bandwidth: 300e3, resource.CPU: 0.7}
	var perSize []float64
	for _, n := range []int{4, 40, 400} {
		s, err := New(app, sweepDB(t, app, n), prefs)
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.Select(res) // compiles the lattices
		if err != nil {
			t.Fatal(err)
		}
		if band := d.ValidRanges[resource.Bandwidth]; !math.IsInf(band[0], -1) || !math.IsInf(band[1], 1) {
			t.Fatalf("%d points: band %v — the walk was meant to cross the whole axis", n, band)
		}
		perSize = append(perSize, testing.AllocsPerRun(50, func() {
			if _, err := s.Select(res); err != nil {
				t.Fatal(err)
			}
		}))
		if derated := testing.AllocsPerRun(50, func() {
			if _, err := s.SelectDerated(res, 0.2); err != nil {
				t.Fatal(err)
			}
		}); derated > perSize[len(perSize)-1]+2 {
			t.Errorf("%d points: SelectDerated allocates %v times, Select %v: more than the derated vector", n, derated, perSize[len(perSize)-1])
		}
	}
	if perSize[0] != perSize[1] || perSize[1] != perSize[2] {
		t.Errorf("Select allocations grow with the lattice: %v at 4, 40, 400 bandwidth points", perSize)
	}
	if perSize[0] > 16 {
		t.Errorf("Select allocates %v times per decision, want a small constant", perSize[0])
	}
}

// TestValidRangeStepsOverNearDuplicateSamples: two samples 1e-12 apart
// along a kind are one lattice point to the model, so the validity walk
// must not treat them as two — a band edge between them would be a
// zero-width step the monitor can never sit inside.
func TestValidRangeStepsOverNearDuplicateSamples(t *testing.T) {
	app := codecApp()
	db := perfdb.New(app)
	lzw := spec.Config{"c": spec.Enum("lzw"), "l": spec.Int(4)}
	bzw := spec.Config{"c": spec.Enum("bzw"), "l": spec.Int(4)}
	near := 0.5 * (1 + 1e-12)
	for _, bw := range []float64{100e3, 200e3} {
		for _, cpu := range []float64{0.2, 0.5, 0.8} {
			if cpu == 0.5 && bw == 200e3 {
				cpu = near
			}
			res := resource.Vector{resource.Bandwidth: bw, resource.CPU: cpu}
			// lzw is faster only around cpu 0.5.
			lt, bt := 10.0, 5.0
			if cpu != 0.2 && cpu != 0.8 {
				lt = 1
			}
			if err := db.Add(lzw, res, spec.Metrics{"transmit_time": lt, "resolution": 4}); err != nil {
				t.Fatal(err)
			}
			if err := db.Add(bzw, res, spec.Metrics{"transmit_time": bt, "resolution": 4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := New(app, db, []Preference{{Name: "fast", Objective: "transmit_time"}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Select(resource.Vector{resource.Bandwidth: 150e3, resource.CPU: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Config.Equal(lzw) {
		t.Fatalf("chose %s, want lzw at cpu 0.5", d.Config.Key())
	}
	if band := d.ValidRanges[resource.CPU]; band != [2]float64{0.5, 0.5} {
		t.Fatalf("cpu band %v, want the single lattice point [0.5 0.5] (not an edge at %v)", band, near)
	}
}
