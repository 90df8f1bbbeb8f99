package perfdb

import (
	"math"
	"testing"
	"testing/quick"

	"tunable/internal/resource"
	"tunable/internal/spec"
)

// Property: multilinear interpolation of a multilinear function is exact.
func TestInterpolationExactOnMultilinear(t *testing.T) {
	f := func(a, b, c uint8) bool {
		ka := 0.5 + float64(a)/64 // cpu coefficient
		kb := 10 + float64(b)     // bandwidth coefficient
		kc := float64(c) / 16     // cross term
		db := New(testApp())
		for _, cpu := range []float64{0.2, 0.6, 1.0} {
			for _, bw := range []float64{1, 5, 9} {
				v := resource.Vector{resource.CPU: cpu, resource.Bandwidth: bw}
				val := ka*cpu + kb*bw + kc*cpu*bw
				if err := db.Add(cfgN(1), v, spec.Metrics{"t": val}); err != nil {
					return false
				}
			}
		}
		// Query strictly inside one cell.
		q := resource.Vector{resource.CPU: 0.45, resource.Bandwidth: 3.3}
		m, err := db.Predict(cfgN(1), q)
		if err != nil {
			return false
		}
		want := ka*0.45 + kb*3.3 + kc*0.45*3.3
		return math.Abs(m["t"]-want) < 1e-9*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: prediction at a sampled lattice point returns the sample.
func TestPredictIdentityOnLattice(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) < 2 {
			return true
		}
		if len(vals) > 12 {
			vals = vals[:12]
		}
		db := New(testApp())
		pts := map[float64]float64{}
		for i, v := range vals {
			cpu := 0.1 + float64(i)*0.05
			val := float64(v)
			pts[cpu] = val
			if err := db.Add(cfgN(1), res(cpu), spec.Metrics{"t": val}); err != nil {
				return false
			}
		}
		for cpu, want := range pts {
			m, err := db.Predict(cfgN(1), res(cpu))
			if err != nil || math.Abs(m["t"]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: interpolation is bounded by the surrounding lattice values
// (no overshoot) in one dimension.
func TestInterpolationBounded(t *testing.T) {
	f := func(lo, hi uint8, fracQ uint8) bool {
		db := New(testApp())
		vLo, vHi := float64(lo), float64(hi)
		db.Add(cfgN(1), res(0.2), spec.Metrics{"t": vLo})
		db.Add(cfgN(1), res(0.8), spec.Metrics{"t": vHi})
		q := 0.2 + 0.6*float64(fracQ)/255
		m, err := db.Predict(cfgN(1), res(q))
		if err != nil {
			return false
		}
		min, max := math.Min(vLo, vHi), math.Max(vLo, vHi)
		return m["t"] >= min-1e-9 && m["t"] <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
