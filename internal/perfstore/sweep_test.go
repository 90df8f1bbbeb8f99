package perfstore_test

import (
	"math"
	"testing"

	"tunable/internal/avis"
	"tunable/internal/expt"
	"tunable/internal/perfdb"
	"tunable/internal/perfstore"
	"tunable/internal/resource"
)

// TestMergedSweepPredictsAsDatabase pins what lets a store hold the
// profiled sweep as the whole model, with no separate prior file: each
// figure's database, folded into an empty store, predicts bit-identically
// to the database itself, at every record and at every midpoint between
// adjacent lattice points — from a memory store and from a log-backed
// store after a reopen.
func TestMergedSweepPredictsAsDatabase(t *testing.T) {
	points := 0
	for _, build := range []func() (*perfdb.DB, error){expt.Fig5DB, expt.Fig6aDB, expt.Fig6bDB} {
		db, err := build()
		if err != nil {
			t.Fatal(err)
		}
		mem := perfstore.NewMemStore()
		if _, err := perfstore.MergeSweep(mem, db); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		wal, err := perfstore.OpenWAL(dir, perfstore.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := perfstore.MergeSweep(wal, db); err != nil {
			t.Fatal(err)
		}
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := perfstore.OpenWAL(dir, perfstore.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()

		for _, store := range []*perfstore.Store{mem, reopened} {
			ps, err := perfstore.New(avis.Spec(), nil, store, perfstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, cfg := range db.Configs() {
				for _, res := range probePoints(t, db, cfg.Key()) {
					want, err := db.Predict(cfg, res)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ps.Predict(cfg, res)
					if err != nil {
						t.Fatalf("%s at %v: %v", cfg.Key(), res, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s at %v: store predicts %v, database %v", cfg.Key(), res, got, want)
					}
					for name, w := range want {
						if g, ok := got[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s at %v: %s = %v from the store, %v from the database", cfg.Key(), res, name, g, w)
						}
					}
					n++
				}
			}
			if store == mem {
				points += n
			}
		}
	}
	if points != 144 {
		t.Fatalf("probed %d points, want the 144 of Figures 5, 6(a) and 6(b)", points)
	}
}

// probePoints lists a configuration's records and, along each lattice
// axis, the midpoint of every adjacent pair of points (the other axes at
// their first point).
func probePoints(t *testing.T, db *perfdb.DB, key string) []resource.Vector {
	t.Helper()
	l, err := db.Lattice(key)
	if err != nil {
		t.Fatal(err)
	}
	var out []resource.Vector
	for _, rec := range l.Records() {
		out = append(out, rec.Resources)
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
