package resource

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestVectorGetWithClone(t *testing.T) {
	v := Vector{CPU: 0.5}
	if v.Get(CPU, 0) != 0.5 {
		t.Fatal("Get present")
	}
	if v.Get(Bandwidth, 123) != 123 {
		t.Fatal("Get default")
	}
	w := v.With(Bandwidth, 1e6)
	if _, ok := v[Bandwidth]; ok {
		t.Fatal("With mutated the original")
	}
	if w[Bandwidth] != 1e6 || w[CPU] != 0.5 {
		t.Fatal("With result wrong")
	}
	c := v.Clone()
	c[CPU] = 0.9
	if v[CPU] != 0.5 {
		t.Fatal("Clone aliases original")
	}
}

func TestVectorEqual(t *testing.T) {
	a := Vector{CPU: 0.4, Bandwidth: 50000}
	b := Vector{CPU: 0.4, Bandwidth: 50000}
	if !a.Equal(b) {
		t.Fatal("identical vectors unequal")
	}
	if a.Equal(Vector{CPU: 0.4}) {
		t.Fatal("different dimension counts compare equal")
	}
	if a.Equal(Vector{CPU: 0.4, Memory: 50000}) {
		t.Fatal("different dimensions compare equal")
	}
	if !a.Equal(Vector{CPU: 0.4 * (1 + 1e-12), Bandwidth: 50000}) {
		t.Fatal("tolerance not applied")
	}
}

func TestDominates(t *testing.T) {
	have := Vector{CPU: 0.8, Bandwidth: 1e6, Latency: 0.001}
	if !have.Dominates(Vector{CPU: 0.5, Bandwidth: 5e5}) {
		t.Fatal("should dominate smaller needs")
	}
	if have.Dominates(Vector{CPU: 0.9}) {
		t.Fatal("should not dominate larger CPU need")
	}
	// Latency inverts: lower is better.
	if !have.Dominates(Vector{Latency: 0.01}) {
		t.Fatal("lower latency should dominate higher latency bound")
	}
	if have.Dominates(Vector{Latency: 0.0001}) {
		t.Fatal("higher latency should not dominate tighter bound")
	}
	if have.Dominates(Vector{Memory: 1}) {
		t.Fatal("missing dimension should fail domination")
	}
}

func TestDistance(t *testing.T) {
	a := Vector{CPU: 0.4}
	b := Vector{CPU: 0.8}
	d := a.Distance(b, Vector{CPU: 1})
	if math.Abs(d-0.4) > 1e-12 {
		t.Fatalf("distance %v", d)
	}
	if a.Distance(a, Vector{CPU: 1}) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestStringDeterministic(t *testing.T) {
	v := Vector{Bandwidth: 512000, CPU: 0.4}
	if got := v.String(); got != "bandwidth=512000 cpu=0.4" {
		t.Fatalf("String() = %q", got)
	}
	if got := v.Key(); got != "bandwidth=512000,cpu=0.4" {
		t.Fatalf("Key() = %q", got)
	}
}

func TestLinspace(t *testing.T) {
	pts := Linspace(0.1, 1.0, 10)
	if len(pts) != 10 {
		t.Fatalf("len %d", len(pts))
	}
	if math.Abs(pts[0]-0.1) > 1e-12 || math.Abs(pts[9]-1.0) > 1e-12 {
		t.Fatalf("endpoints %v %v", pts[0], pts[9])
	}
	if math.Abs(pts[1]-0.2) > 1e-12 {
		t.Fatalf("step %v", pts[1])
	}
	if got := Linspace(5, 9, 1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("n=1 case %v", got)
	}
	if Linspace(0, 1, 0) != nil {
		t.Fatal("n=0 case")
	}
}

func TestLogspace(t *testing.T) {
	pts := Logspace(10, 1000, 3)
	want := []float64{10, 100, 1000}
	for i := range want {
		if math.Abs(pts[i]-want[i])/want[i] > 1e-9 {
			t.Fatalf("pts %v", pts)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nonpositive bound")
		}
	}()
	Logspace(0, 1, 3)
}

func TestGridPointsOrderAndSize(t *testing.T) {
	g := NewGrid(
		Axis{Kind: CPU, Points: []float64{0.5, 0.1, 0.9}},
		Axis{Kind: Bandwidth, Points: []float64{100, 200}},
	)
	if g.Size() != 6 {
		t.Fatalf("size %d", g.Size())
	}
	pts := g.Points()
	if len(pts) != 6 {
		t.Fatalf("points %d", len(pts))
	}
	// Axis points sorted ascending, last axis fastest.
	if pts[0][CPU] != 0.1 || pts[0][Bandwidth] != 100 {
		t.Fatalf("first point %v", pts[0])
	}
	if pts[1][CPU] != 0.1 || pts[1][Bandwidth] != 200 {
		t.Fatalf("second point %v", pts[1])
	}
	if pts[5][CPU] != 0.9 || pts[5][Bandwidth] != 200 {
		t.Fatalf("last point %v", pts[5])
	}
}

func TestGridDeduplicates(t *testing.T) {
	g := NewGrid(Axis{Kind: CPU, Points: []float64{0.5, 0.5, 0.5}})
	if g.Size() != 1 {
		t.Fatalf("size %d after dedup", g.Size())
	}
}

func TestGridNeighbors(t *testing.T) {
	g := NewGrid(Axis{Kind: CPU, Points: []float64{0.2, 0.4, 0.8}})
	lo, hi, err := g.Neighbors(Vector{CPU: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if lo[CPU] != 0.4 || hi[CPU] != 0.8 {
		t.Fatalf("bracket %v %v", lo, hi)
	}
	// On a lattice point.
	lo, hi, _ = g.Neighbors(Vector{CPU: 0.4})
	if lo[CPU] != 0.4 || hi[CPU] != 0.4 {
		t.Fatalf("exact bracket %v %v", lo, hi)
	}
	// Clamped below and above.
	lo, hi, _ = g.Neighbors(Vector{CPU: 0.05})
	if lo[CPU] != 0.2 || hi[CPU] != 0.2 {
		t.Fatalf("low clamp %v %v", lo, hi)
	}
	lo, hi, _ = g.Neighbors(Vector{CPU: 2})
	if lo[CPU] != 0.8 || hi[CPU] != 0.8 {
		t.Fatalf("high clamp %v %v", lo, hi)
	}
	if _, _, err := g.Neighbors(Vector{}); err == nil {
		t.Fatal("missing dimension should error")
	}
}

func TestGridContains(t *testing.T) {
	g := NewGrid(Axis{Kind: CPU, Points: []float64{0.2, 0.8}})
	if !g.Contains(Vector{CPU: 0.5}) {
		t.Fatal("interior point")
	}
	if g.Contains(Vector{CPU: 0.9}) {
		t.Fatal("exterior point")
	}
	if g.Contains(Vector{Bandwidth: 1}) {
		t.Fatal("missing dimension")
	}
}

func TestCapacityFits(t *testing.T) {
	c := Capacity{Component: "client", Limits: Vector{CPU: 1.0, Memory: 128 << 20}}
	if !c.Fits(Request{Component: "client", Wants: Vector{CPU: 0.4}}) {
		t.Fatal("fitting request rejected")
	}
	if c.Fits(Request{Component: "server", Wants: Vector{CPU: 0.4}}) {
		t.Fatal("wrong component accepted")
	}
	if c.Fits(Request{Component: "client", Wants: Vector{CPU: 1.5}}) {
		t.Fatal("oversized request accepted")
	}
}

// Property: domination is reflexive and antisymmetric-ish over positive kinds.
func TestDominatesProperties(t *testing.T) {
	f := func(a, b uint8) bool {
		x := Vector{CPU: float64(a) / 255, Bandwidth: float64(b) * 1000}
		return x.Dominates(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(a1, a2, b1, b2 uint8) bool {
		x := Vector{CPU: float64(a1), Bandwidth: float64(b1)}
		y := Vector{CPU: float64(a2), Bandwidth: float64(b2)}
		if x.Dominates(y) && y.Dominates(x) {
			// mutual domination implies equality on these monotone kinds
			return x[CPU] == y[CPU] && x[Bandwidth] == y[Bandwidth]
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every grid point is contained in the grid and brackets to itself.
func TestGridPointsBracketThemselves(t *testing.T) {
	g := NewGrid(
		Axis{Kind: CPU, Points: Linspace(0.1, 1, 7)},
		Axis{Kind: Bandwidth, Points: Logspace(1e4, 1e6, 5)},
	)
	for _, p := range g.Points() {
		if !g.Contains(p) {
			t.Fatalf("point %v not contained", p)
		}
		lo, hi, err := g.Neighbors(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range p.Kinds() {
			if !approxEqual(lo[k], p[k]) || !approxEqual(hi[k], p[k]) {
				t.Fatalf("point %v brackets to %v..%v on %s", p, lo, hi, k)
			}
		}
	}
}

// legacyKey is the fmt rendering Key had before it appended with strconv:
// files, WAL snapshots and overlay records written by it must keep
// matching.
func legacyKey(v Vector) string {
	parts := make([]string, 0, len(v))
	for _, k := range v.Kinds() {
		parts = append(parts, fmt.Sprintf("%s=%.6g", k, v[k]))
	}
	return strings.Join(parts, ",")
}

func TestKeyByteIdenticalToFmt(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.4, 512000, 0.1 + 0.2, 123456.5, 1234567, 999999.5,
		100000, 1e-5, 1e21, 1e20, 1.5e-7, 5e-324, 2.2250738585072014e-308, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), 0.12345649999999, 0.1234565000001,
	}
	for _, x := range values {
		for _, v := range []Vector{
			{CPU: x},
			{Bandwidth: x, CPU: 0.4},
			{Latency: 0.01, Memory: x, CPU: 1, Bandwidth: 25e3},
			{"zeta": x, "alpha": -x, CPU: x, Memory: 1, Latency: 2, Bandwidth: 3}, // more kinds than the stack buffers hold
		} {
			if got, want := v.Key(), legacyKey(v); got != want {
				t.Errorf("Key() = %q, fmt form %q", got, want)
			}
			if got := string(v.AppendKey([]byte("x:"))); got != "x:"+legacyKey(v) {
				t.Errorf("AppendKey = %q", got)
			}
		}
	}
	if got := (Vector{}).Key(); got != "" {
		t.Errorf("empty Key() = %q", got)
	}
}

func TestKeyEqualMatchesRendering(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, 1 + 1e-12, 1 + 3e-8, 1 + 9e-6, 1 + 1.1e-5, 0.999995, 0.9999949,
		123456.4, 123456.5, 123457.4, 5e-324, 1e-323, 1e21, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, x := range values {
		for _, y := range values {
			want := fmt.Sprintf("%.6g", x) == fmt.Sprintf("%.6g", y)
			if got := KeyEqual(x, y); got != want {
				t.Errorf("KeyEqual(%v, %v) = %v, renderings %.6g / %.6g", x, y, got, x, y)
			}
		}
	}
}

func TestDistanceOrderIndependent(t *testing.T) {
	// Three and more dimensions: the sum of squares must not depend on map
	// iteration order, and a dimension only one side carries counts.
	a := Vector{CPU: 0.3, Bandwidth: 1e5, Memory: 7e6, "zeta": 3}
	b := Vector{CPU: 0.7, Bandwidth: 3e5, Latency: 0.02}
	scale := Vector{CPU: 0.9, Bandwidth: 7e5, Memory: 1e7}
	want := a.Distance(b, scale)
	for i := 0; i < 200; i++ {
		if got := a.Clone().Distance(b.Clone(), scale); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("distance %v then %v", want, got)
		}
	}
	if math.Float64bits(want) != math.Float64bits(b.Distance(a, scale)) {
		t.Fatal("distance not symmetric")
	}
}

func TestAxisBracket(t *testing.T) {
	ax := Axis{Kind: CPU, Points: []float64{0.2, 0.4, 0.8}}
	for _, c := range []struct {
		x      float64
		lo, hi int
	}{
		{0.05, 0, 0}, {0.2, 0, 0}, {0.3, 0, 1}, {0.4, 1, 1}, {0.4 * (1 - 1e-12), 1, 1},
		{0.4 * (1 + 1e-12), 1, 2}, {0.5, 1, 2}, {0.8, 2, 2}, {2, 2, 2}, {math.NaN(), 2, 2},
	} {
		if lo, hi := ax.Bracket(c.x); lo != c.lo || hi != c.hi {
			t.Errorf("Bracket(%v) = %d,%d, want %d,%d", c.x, lo, hi, c.lo, c.hi)
		}
	}
}
