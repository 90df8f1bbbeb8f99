package perfstore

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/spec"
)

// databaseLattice is the oracle for materialize: the merged profile built
// the way a database builds one, by Add — every prior record the overlay
// does not cover, then every overlay record — in the prior's mode.
func databaseLattice(app *spec.App, prior *perfdb.DB, cfg spec.Config, overlay []profileRecord) (*perfdb.Lattice, error) {
	db := perfdb.New(app)
	overlaid := map[string]bool{}
	for _, r := range overlay {
		overlaid[r.Resources.Key()] = true
	}
	if prior != nil {
		db.SetMode(prior.Mode())
		for _, rec := range prior.Records(cfg) {
			if overlaid[rec.Resources.Key()] {
				continue
			}
			if err := db.Add(cfg, rec.Resources, rec.Metrics); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range overlay {
		if err := db.Add(cfg, r.Resources, r.Metrics); err != nil {
			return nil, err
		}
	}
	return db.Lattice(cfg.Key())
}

// materializeCase is one configuration's prior records and overlay.
type materializeCase struct {
	name    string
	prior   []profileRecord // nil: the configuration has no prior profile
	overlay []profileRecord // nil: the store holds nothing for it
	mode    perfdb.PredictMode
	refused bool // the overlay names an undeclared metric: both must error
}

func pointRec(bw, cpu float64, m spec.Metrics) profileRecord {
	res := resource.Vector{resource.Bandwidth: bw}
	if cpu > 0 {
		res[resource.CPU] = cpu
	}
	return profileRecord{Resources: res, Metrics: m, Weight: 1, Samples: 1}
}

// randomMaterializeCase draws prior and overlay records from a small
// bandwidth × cpu lattice, so overlay points land on prior points
// (override), between and beyond them (extension) and, rendered to six
// digits, on a prior point's key from a different value; some records
// lack the cpu kind or a metric.
func randomMaterializeCase(rng *rand.Rand) materializeCase {
	bws := []float64{50e3, 100e3, 200e3, 400e3, 50e3 * (1 + 1e-9), 150e3}
	cpus := []float64{0, 0.25, 0.5, 1}
	draw := func(n int) []profileRecord {
		var out []profileRecord
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			m := spec.Metrics{"time": 1 + 99*rng.Float64()}
			if rng.Intn(4) > 0 {
				m["quality"] = rng.Float64()
			}
			r := pointRec(bws[rng.Intn(len(bws))], cpus[rng.Intn(len(cpus))], m)
			if k := r.Resources.Key(); !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
		return out
	}
	c := materializeCase{name: "random", mode: perfdb.PredictMode(rng.Intn(2))}
	if rng.Intn(4) > 0 {
		c.prior = draw(1 + rng.Intn(12))
	}
	if rng.Intn(4) > 0 {
		c.overlay = draw(1 + rng.Intn(6))
	}
	return c
}

// TestMaterializeMatchesDatabase is the differential test of the merged
// compile: the lattice a PerfStore builds from the prior lattice's records
// and the stored overlay holds the same records in the same order, and
// predicts bit for bit what a database built by Add predicts, at every
// record, every midpoint between adjacent lattice points and random
// queries — over named cases and seeded random ones. An overlay naming a
// metric the spec does not declare came from a log no fold wrote, and
// both refuse it.
func TestMaterializeMatchesDatabase(t *testing.T) {
	app := testApp(t)
	cases := []materializeCase{
		{name: "overlay overrides a prior point",
			prior:   []profileRecord{pointRec(50e3, 0, spec.Metrics{"time": 100}), pointRec(200e3, 0, spec.Metrics{"time": 25})},
			overlay: []profileRecord{pointRec(200e3, 0, spec.Metrics{"time": 40})}},
		{name: "overlay extends the lattice",
			prior:   []profileRecord{pointRec(50e3, 0.5, spec.Metrics{"time": 100}), pointRec(200e3, 0.5, spec.Metrics{"time": 25})},
			overlay: []profileRecord{pointRec(100e3, 0.5, spec.Metrics{"time": 60}), pointRec(400e3, 1, spec.Metrics{"time": 9})}},
		{name: "only an overlay",
			overlay: []profileRecord{pointRec(100e3, 0, spec.Metrics{"time": 60, "quality": 0.5})}},
		{name: "only a prior", mode: perfdb.NearestOnly,
			prior: []profileRecord{pointRec(50e3, 0, spec.Metrics{"time": 100}), pointRec(200e3, 0, spec.Metrics{"time": 25})}},
		{name: "overlay with an undeclared metric", refused: true,
			prior:   []profileRecord{pointRec(50e3, 0, spec.Metrics{"time": 100})},
			overlay: []profileRecord{pointRec(100e3, 0, spec.Metrics{"time": 60, "bogus": 1})}},
	}
	rng := rand.New(rand.NewSource(1))
	for len(cases) < 300 {
		cases = append(cases, randomMaterializeCase(rng))
	}
	cfg := cfgOf("lzw", 1)
	for i, c := range cases {
		var prior *perfdb.DB
		if c.prior != nil || i%2 == 0 { // an odd case with no prior profile has no prior at all
			prior = perfdb.New(app)
			prior.SetMode(c.mode)
		}
		for _, r := range c.prior {
			if err := prior.Add(cfg, r.Resources, r.Metrics); err != nil {
				t.Fatal(err)
			}
		}
		store := NewMemStore()
		if c.overlay != nil {
			if err := store.Save(&profile{ConfigKey: cfg.Key(), Version: 1, Records: c.overlay}); err != nil {
				t.Fatal(err)
			}
		}
		ps := newTestStore(t, prior, store, Options{})
		got, gerr := ps.Lattice(cfg.Key())
		want, werr := databaseLattice(app, prior, cfg, c.overlay)
		if c.refused {
			if gerr == nil || werr == nil {
				t.Fatalf("case %d (%s): %v, database %v, want both to refuse", i, c.name, gerr, werr)
			}
			continue
		}
		if c.prior == nil && c.overlay == nil {
			if !errors.Is(gerr, perfdb.ErrNoProfile) || !errors.Is(werr, perfdb.ErrNoProfile) {
				t.Fatalf("case %d (%s): %v and %v, want ErrNoProfile", i, c.name, gerr, werr)
			}
			continue
		}
		if gerr != nil || werr != nil {
			t.Fatalf("case %d (%s): %v, database %v", i, c.name, gerr, werr)
		}
		gotRecs, wantRecs := got.Records(), want.Records()
		if len(gotRecs) != len(wantRecs) {
			t.Fatalf("case %d (%s): %d records, database %d", i, c.name, len(gotRecs), len(wantRecs))
		}
		for j := range wantRecs {
			if gk, wk := gotRecs[j].Resources.Key(), wantRecs[j].Resources.Key(); gk != wk {
				t.Fatalf("case %d (%s): record %d at %s, database %s", i, c.name, j, gk, wk)
			}
		}
		queries := latticeProbes(want)
		for k := 0; k < 20; k++ {
			queries = append(queries, resource.Vector{
				resource.Bandwidth: 30e3 + 400e3*rng.Float64(),
				resource.CPU:       1.2 * rng.Float64(),
			})
		}
		for _, q := range queries {
			gm, gerr := got.Predict(q)
			wm, werr := want.Predict(q)
			if (gerr == nil) != (werr == nil) || len(gm) != len(wm) {
				t.Fatalf("case %d (%s) at %s: %v (%v), database %v (%v)", i, c.name, q, gm, gerr, wm, werr)
			}
			for name, w := range wm {
				if g, ok := gm[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("case %d (%s) at %s: %s = %v, database %v", i, c.name, q, name, g, w)
				}
			}
		}
	}
}

// latticeProbes lists a lattice's record points and, along each axis, the
// midpoint of every adjacent pair of points (the other axes at their
// first point).
func latticeProbes(l *perfdb.Lattice) []resource.Vector {
	var out []resource.Vector
	for _, r := range l.Records() {
		out = append(out, r.Resources)
	}
	axes := l.Axes()
	for i, ax := range axes {
		for j := 0; j+1 < len(ax.Points); j++ {
			res := resource.Vector{}
			for _, other := range axes {
				res[other.Kind] = other.Points[0]
			}
			res[axes[i].Kind] = (ax.Points[j] + ax.Points[j+1]) / 2
			out = append(out, res)
		}
	}
	return out
}
