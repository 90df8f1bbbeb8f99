package perfdb

import (
	"errors"
	"math"
	"testing"

	"tunable/internal/resource"
	"tunable/internal/spec"
)

// testApp declares one int parameter and two metrics with opposite
// preference directions.
func testApp() *spec.App {
	return spec.MustParse(`
app test;
control_parameters {
    int n in {1, 2, 3};
}
qos_metric {
    duration t minimize;
    scalar q maximize;
}
`)
}

func cfgN(n int) spec.Config { return spec.Config{"n": spec.Int(n)} }

func res(cpu float64) resource.Vector { return resource.Vector{resource.CPU: cpu} }

func TestAddAndLookup(t *testing.T) {
	db := New(testApp())
	if err := db.Add(cfgN(1), res(0.5), spec.Metrics{"t": 2.0, "q": 3.0}); err != nil {
		t.Fatal(err)
	}
	rec, ok := db.Lookup(cfgN(1), res(0.5))
	if !ok || rec.Metrics["t"] != 2.0 {
		t.Fatalf("lookup %+v %v", rec, ok)
	}
	if _, ok := db.Lookup(cfgN(1), res(0.6)); ok {
		t.Fatal("phantom record")
	}
	if _, ok := db.Lookup(cfgN(2), res(0.5)); ok {
		t.Fatal("phantom config")
	}
	if db.Len() != 1 {
		t.Fatalf("len %d", db.Len())
	}
}

func TestAddValidates(t *testing.T) {
	db := New(testApp())
	if err := db.Add(spec.Config{"n": spec.Int(99)}, res(0.5), spec.Metrics{"t": 1}); err == nil {
		t.Fatal("out-of-domain config accepted")
	}
	if err := db.Add(cfgN(1), res(0.5), spec.Metrics{"bogus": 1}); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestRepeatedSamplesAveraged(t *testing.T) {
	db := New(testApp())
	db.Add(cfgN(1), res(0.5), spec.Metrics{"t": 2.0})
	db.Add(cfgN(1), res(0.5), spec.Metrics{"t": 4.0})
	db.Add(cfgN(1), res(0.5), spec.Metrics{"t": 6.0})
	rec, _ := db.Lookup(cfgN(1), res(0.5))
	if math.Abs(rec.Metrics["t"]-4.0) > 1e-12 {
		t.Fatalf("averaged %v", rec.Metrics["t"])
	}
	if rec.Samples != 3 {
		t.Fatalf("samples %d", rec.Samples)
	}
}

func TestInterpolation1D(t *testing.T) {
	db := New(testApp())
	// t decreases linearly with CPU share: t = 10 - 8·cpu.
	for _, cpu := range []float64{0.2, 0.4, 0.6, 0.8} {
		db.Add(cfgN(1), res(cpu), spec.Metrics{"t": 10 - 8*cpu})
	}
	m, err := db.Predict(cfgN(1), res(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m["t"]-6.0) > 1e-9 {
		t.Fatalf("interpolated t=%v, want 6", m["t"])
	}
	// Exactly on a lattice point.
	m, _ = db.Predict(cfgN(1), res(0.4))
	if math.Abs(m["t"]-6.8) > 1e-9 {
		t.Fatalf("lattice t=%v, want 6.8", m["t"])
	}
	// Outside the lattice: clamped (nearest-edge extrapolation).
	m, _ = db.Predict(cfgN(1), res(0.05))
	if math.Abs(m["t"]-8.4) > 1e-9 {
		t.Fatalf("clamped t=%v, want 8.4", m["t"])
	}
}

func TestInterpolation2D(t *testing.T) {
	db := New(testApp())
	// t = cpu + 10·bw on a 2×2 lattice.
	for _, cpu := range []float64{0, 1} {
		for _, bw := range []float64{0, 1} {
			v := resource.Vector{resource.CPU: cpu, resource.Bandwidth: bw}
			db.Add(cfgN(1), v, spec.Metrics{"t": cpu + 10*bw})
		}
	}
	q := resource.Vector{resource.CPU: 0.25, resource.Bandwidth: 0.5}
	m, err := db.Predict(cfgN(1), q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m["t"]-5.25) > 1e-9 {
		t.Fatalf("bilinear t=%v, want 5.25", m["t"])
	}
}

func TestIncompleteLatticeFallsBackToNearest(t *testing.T) {
	db := New(testApp())
	db.Add(cfgN(1), resource.Vector{resource.CPU: 0, resource.Bandwidth: 0}, spec.Metrics{"t": 1})
	db.Add(cfgN(1), resource.Vector{resource.CPU: 1, resource.Bandwidth: 1}, spec.Metrics{"t": 9})
	// The (0,1) and (1,0) corners are missing; Predict must still answer.
	q := resource.Vector{resource.CPU: 0.1, resource.Bandwidth: 0.1}
	m, err := db.Predict(cfgN(1), q)
	if err != nil {
		t.Fatal(err)
	}
	if m["t"] != 1 {
		t.Fatalf("fallback t=%v, want nearest (1)", m["t"])
	}
}

func TestNearestOnlyMode(t *testing.T) {
	db := New(testApp())
	db.Add(cfgN(1), res(0.2), spec.Metrics{"t": 2})
	db.Add(cfgN(1), res(0.8), spec.Metrics{"t": 8})
	db.SetMode(NearestOnly)
	m, err := db.Predict(cfgN(1), res(0.45))
	if err != nil {
		t.Fatal(err)
	}
	if m["t"] != 2 {
		t.Fatalf("nearest t=%v, want 2", m["t"])
	}
	db.SetMode(Interpolate)
	m, _ = db.Predict(cfgN(1), res(0.45))
	if math.Abs(m["t"]-4.5) > 1e-9 {
		t.Fatalf("interpolated t=%v, want 4.5", m["t"])
	}
}

func TestPredictUnknownConfig(t *testing.T) {
	db := New(testApp())
	if _, err := db.Predict(cfgN(1), res(0.5)); err == nil {
		t.Fatal("predict on empty profile succeeded")
	}
}

func TestSensitivityAnalysis(t *testing.T) {
	db := New(testApp())
	// Steep change between 0.4 and 0.6, flat elsewhere.
	db.Add(cfgN(1), res(0.2), spec.Metrics{"t": 10})
	db.Add(cfgN(1), res(0.4), spec.Metrics{"t": 10})
	db.Add(cfgN(1), res(0.6), spec.Metrics{"t": 2})
	db.Add(cfgN(1), res(0.8), spec.Metrics{"t": 2})
	sugg := db.SensitivityAnalysis(0.3)
	if len(sugg) != 1 {
		t.Fatalf("suggestions %+v", sugg)
	}
	s := sugg[0]
	if s.Kind != resource.CPU || math.Abs(s.At[resource.CPU]-0.5) > 1e-12 {
		t.Fatalf("suggestion %+v", s)
	}
	if s.RelDelta < 0.7 {
		t.Fatalf("rel delta %v", s.RelDelta)
	}
}

func TestConfigsSorted(t *testing.T) {
	db := New(testApp())
	db.Add(cfgN(3), res(0.5), spec.Metrics{"t": 1})
	db.Add(cfgN(1), res(0.5), spec.Metrics{"t": 1})
	db.Add(cfgN(2), res(0.5), spec.Metrics{"t": 1})
	cfgs := db.Configs()
	if cfgs[0].Key() != "n=1" || cfgs[2].Key() != "n=3" {
		t.Fatalf("order %v %v %v", cfgs[0].Key(), cfgs[1].Key(), cfgs[2].Key())
	}
}

// nearestRecord is the record the lattice's nearest-sample fallback
// answers res with, or nil.
func nearestRecord(l *Lattice, res resource.Vector) *Record {
	row, ok := l.nearest(res)
	if !ok {
		return nil
	}
	return l.recs[row]
}

func TestNearest(t *testing.T) {
	db := New(testApp())
	db.Add(cfgN(1), res(0.2), spec.Metrics{"t": 2})
	db.Add(cfgN(1), res(0.9), spec.Metrics{"t": 9})
	l, err := db.Lattice(cfgN(1).Key())
	if err != nil {
		t.Fatal(err)
	}
	if rec := nearestRecord(l, res(0.3)); rec == nil || rec.Metrics["t"] != 2 {
		t.Fatalf("nearest %+v", rec)
	}
	if _, err := db.Lattice(cfgN(3).Key()); !errors.Is(err, ErrNoProfile) {
		t.Fatalf("lattice of an empty profile: %v, want ErrNoProfile", err)
	}
}
