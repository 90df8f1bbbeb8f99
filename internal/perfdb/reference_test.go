package perfdb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tunable/internal/resource"
	"tunable/internal/spec"
)

// The reference oracle: the model lookup as it was before profiles were
// compiled — rebuild the grid from the record map, bracket the query, walk
// the 2^d corners recursively looking each up by its canonical key, fall
// back to a linear nearest-record scan. It is kept verbatim (apart from the
// explicit rounding of each product, which the compiled form also does) so
// the differential tests below can demand bit-equal answers from Lattice.

func refRecords(p *configProfile) []*Record {
	keys := make([]string, 0, len(p.records))
	for k := range p.records {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Record, len(keys))
	for i, k := range keys {
		out[i] = p.records[k]
	}
	return out
}

func refGrid(p *configProfile) *resource.Grid {
	kinds := make([]resource.Kind, 0, len(p.dims))
	for k := range p.dims {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	axes := make([]resource.Axis, 0, len(kinds))
	for _, k := range kinds {
		var pts []float64
		for _, rec := range p.records {
			if v, ok := rec.Resources[k]; ok {
				pts = append(pts, v)
			}
		}
		axes = append(axes, resource.Axis{Kind: k, Points: pts})
	}
	return resource.NewGrid(axes...)
}

func refScale(p *configProfile) resource.Vector {
	g := refGrid(p)
	s := resource.Vector{}
	for _, ax := range g.Axes {
		if len(ax.Points) == 0 {
			continue
		}
		span := ax.Points[len(ax.Points)-1] - ax.Points[0]
		if span <= 0 {
			span = math.Abs(ax.Points[0])
			if span == 0 {
				span = 1
			}
		}
		s[ax.Kind] = span
	}
	return s
}

func refNearest(p *configProfile, res resource.Vector) (*Record, bool) {
	scale := refScale(p)
	var best *Record
	bestD := math.Inf(1)
	for _, rec := range refRecords(p) {
		d := rec.Resources.Distance(res, scale)
		if d < bestD {
			bestD = d
			best = rec
		}
	}
	return best, best != nil
}

func refPredict(db *DB, cfg spec.Config, res resource.Vector) (spec.Metrics, error) {
	p, ok := db.profiles[cfg.Key()]
	if !ok || len(p.records) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoProfile, cfg.Key())
	}
	if db.mode == NearestOnly {
		rec, _ := refNearest(p, res)
		return rec.Metrics.Clone(), nil
	}
	m, err := refInterpolate(p, res)
	if err != nil {
		rec, _ := refNearest(p, res)
		return rec.Metrics.Clone(), nil
	}
	return m, nil
}

func refInterpolate(p *configProfile, res resource.Vector) (spec.Metrics, error) {
	g := refGrid(p)
	if len(g.Axes) == 0 {
		return nil, fmt.Errorf("perfdb: profile has no resource dimensions")
	}
	lo, hi, err := g.Neighbors(res)
	if err != nil {
		return nil, err
	}
	type dim struct {
		kind resource.Kind
		lo   float64
		hi   float64
		w    float64 // weight of the hi end
	}
	var dims []dim
	base := resource.Vector{}
	for _, ax := range g.Axes {
		l, h := lo[ax.Kind], hi[ax.Kind]
		if l == h {
			base[ax.Kind] = l
			continue
		}
		w := (res[ax.Kind] - l) / (h - l)
		dims = append(dims, dim{kind: ax.Kind, lo: l, hi: h, w: w})
	}
	out := spec.Metrics{}
	var walk func(i int, pt resource.Vector, weight float64) error
	walk = func(i int, pt resource.Vector, weight float64) error {
		if i == len(dims) {
			rec, ok := p.records[pt.Key()]
			if !ok {
				return fmt.Errorf("perfdb: lattice corner %s missing", pt.Key())
			}
			for name, v := range rec.Metrics {
				out[name] += float64(weight * v)
			}
			return nil
		}
		d := dims[i]
		if err := walk(i+1, pt.With(d.kind, d.lo), weight*(1-d.w)); err != nil {
			return err
		}
		return walk(i+1, pt.With(d.kind, d.hi), weight*d.w)
	}
	if err := walk(0, base, 1.0); err != nil {
		return nil, err
	}
	return out, nil
}

// sameMetrics demands the same metric names with bit-equal values.
func sameMetrics(got, want spec.Metrics) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("metric %s: got %v (%#x), want %v (%#x)", name, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	return nil
}

// randomDB fills a database for cfgN(1) with a seeded random profile over
// 1–3 resource kinds: a lattice that is complete or has holes, axis values
// that may sit closer than the approximate-equality tolerance (one lattice
// point) or than the key's six digits (two points, one key), records
// missing a dimension or a metric, and repeated samples that average. It
// returns the kinds and the axis values generated for each.
func randomDB(t *testing.T, rng *rand.Rand) (*DB, []resource.Axis) {
	t.Helper()
	db := New(testApp())
	kinds := []resource.Kind{resource.CPU, resource.Bandwidth, resource.Memory}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	kinds = kinds[:1+rng.Intn(3)]
	axes := make([]resource.Axis, len(kinds))
	for i, k := range kinds {
		var pts []float64
		x := math.Pow(10, float64(rng.Intn(7)-1)) * (0.5 + rng.Float64())
		if rng.Intn(6) == 0 {
			pts = append(pts, 0) // what a record missing the dimension reads as
		}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			pts = append(pts, x)
			switch rng.Intn(8) {
			case 0:
				pts = append(pts, x*(1+1e-12)) // same lattice point
			case 1:
				pts = append(pts, x*(1+3e-8)) // next point, same key
			}
			x *= 1.5 + rng.Float64()
		}
		axes[i] = resource.Axis{Kind: k, Points: pts}
	}
	holes := rng.Intn(3) == 0
	metrics := func() spec.Metrics {
		m := spec.Metrics{"t": rng.NormFloat64() * 100, "q": rng.Float64()}
		if rng.Intn(10) == 0 {
			delete(m, "q")
		}
		return m
	}
	var points []resource.Vector
	var fill func(i int, pt resource.Vector)
	fill = func(i int, pt resource.Vector) {
		if i == len(kinds) {
			points = append(points, pt.Clone())
			return
		}
		for _, x := range axes[i].Points {
			fill(i+1, pt.With(kinds[i], x))
		}
	}
	fill(0, resource.Vector{})
	rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	for _, pt := range points {
		if holes && rng.Intn(4) == 0 {
			continue
		}
		if len(kinds) > 1 && rng.Intn(25) == 0 {
			delete(pt, kinds[rng.Intn(len(kinds))])
		}
		for n := 1 + rng.Intn(2); n > 0; n-- {
			if err := db.Add(cfgN(1), pt, metrics()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if db.Len() == 0 {
		if err := db.Add(cfgN(1), points[0], metrics()); err != nil {
			t.Fatal(err)
		}
	}
	return db, axes
}

// randomQuery draws a resource point on, between or outside the lattice
// values, sometimes without one of the dimensions or with one the profile
// never saw.
func randomQuery(rng *rand.Rand, axes []resource.Axis) resource.Vector {
	q := resource.Vector{}
	for _, ax := range axes {
		pts := ax.Points
		x := pts[rng.Intn(len(pts))]
		switch rng.Intn(6) {
		case 0: // on the lattice
		case 1:
			x *= 1 + 1e-12
		case 2:
			x = pts[0] / 2
		case 3:
			x = pts[len(pts)-1] * 2
		default:
			x += (pts[rng.Intn(len(pts))] - x) * rng.Float64()
		}
		q[ax.Kind] = x
	}
	if rng.Intn(12) == 0 {
		delete(q, axes[rng.Intn(len(axes))].Kind)
	}
	if rng.Intn(12) == 0 {
		q[resource.Latency] = rng.Float64()
	}
	return q
}

// TestLatticeMatchesReference is the differential test of the compiled
// profile: over seeded random databases and queries, in both predict
// modes, DB.Predict, Nearest and Records answer bit-for-bit what the
// reference walk answers.
func TestLatticeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, axes := randomDB(t, rng)
		p := db.profiles[cfgN(1).Key()]
		for _, mode := range []PredictMode{Interpolate, NearestOnly} {
			db.SetMode(mode)
			scratch := spec.Metrics{"stale": 1}
			for i := 0; i < 40; i++ {
				q := randomQuery(rng, axes)
				want, werr := refPredict(db, cfgN(1), q)
				got, gerr := db.Predict(cfgN(1), q)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("seed %d mode %d query %s: error %v, reference %v", seed, mode, q, gerr, werr)
				}
				if err := sameMetrics(got, want); err != nil {
					t.Fatalf("seed %d mode %d query %s: %v", seed, mode, q, err)
				}
				l, err := db.Lattice(cfgN(1).Key())
				if err != nil {
					t.Fatal(err)
				}
				if err := l.PredictInto(q, scratch); err != nil {
					t.Fatal(err)
				}
				if err := sameMetrics(scratch, want); err != nil {
					t.Fatalf("seed %d mode %d query %s: PredictInto: %v", seed, mode, q, err)
				}
				wantRec, _ := refNearest(p, q)
				if gotRec, _ := db.Nearest(cfgN(1), q); gotRec != wantRec {
					t.Fatalf("seed %d query %s: nearest %v, reference %v", seed, q, gotRec, wantRec)
				}
			}
		}
		got, want := db.Records(cfgN(1)), refRecords(p)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d records, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: record %d out of order", seed, i)
			}
		}
	}
}

// TestLatticeInvalidatedByAdd: a lattice handed out keeps answering from
// the records it was compiled from; the database compiles a new one after
// Add extends the lattice or averages a repeated sample, and after SetMode.
func TestLatticeInvalidatedByAdd(t *testing.T) {
	db := New(testApp())
	for _, cpu := range []float64{0.25, 0.75} {
		if err := db.Add(cfgN(1), res(cpu), spec.Metrics{"t": 10 * cpu}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := db.Lattice(cfgN(1).Key())
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := db.Lattice(cfgN(1).Key()); again != before {
		t.Fatal("unchanged profile compiled twice")
	}
	if err := db.Add(cfgN(1), res(0.5), spec.Metrics{"t": 100}); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(cfgN(1), res(0.75), spec.Metrics{"t": 0.5}); err != nil { // averages to 4
		t.Fatal(err)
	}
	old, _ := before.Predict(res(0.5))
	if old["t"] != 5 {
		t.Fatalf("published lattice changed under Add: t=%v, want 5", old["t"])
	}
	for _, c := range []struct{ cpu, want float64 }{{0.5, 100}, {0.75, 4}} {
		m, err := db.Predict(cfgN(1), res(c.cpu))
		if err != nil || m["t"] != c.want {
			t.Fatalf("after Add: t(%v)=%v (%v), want %v", c.cpu, m["t"], err, c.want)
		}
	}
	if len(db.Records(cfgN(1))) != 3 {
		t.Fatalf("%d records after Add, want 3", len(db.Records(cfgN(1))))
	}
	db.SetMode(NearestOnly)
	if m, _ := db.Predict(cfgN(1), res(0.6)); m["t"] != 100 {
		t.Fatalf("after SetMode(NearestOnly): t(0.6)=%v, want the 0.5 sample's 100", m["t"])
	}
}

// TestPredictNaNQuery: no record is nearest to a NaN coordinate. The
// reference walk dereferenced a nil record there; the lattice reports it.
func TestPredictNaNQuery(t *testing.T) {
	db := New(testApp())
	db.SetMode(NearestOnly)
	if err := db.Add(cfgN(1), res(0.5), spec.Metrics{"t": 1}); err != nil {
		t.Fatal(err)
	}
	if m, err := db.Predict(cfgN(1), res(math.NaN())); err == nil {
		t.Fatalf("NaN query predicted %v", m)
	}
}
