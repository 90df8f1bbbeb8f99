package perfdb

import (
	"math"
	"sort"

	"tunable/internal/resource"
	"tunable/internal/spec"
)

// Dominated reports whether configuration a is dominated by configuration
// b: at every resource point sampled for both, b's metrics are at least as
// good as a's (respecting each metric's preference direction) and strictly
// better at one or more points. Dominated configurations can be dropped
// from the database without losing scheduling power — the database then
// stores the "maximal subset" of configurations (footnote 1 of the paper).
func (db *DB) Dominated(a, b spec.Config) bool {
	pa, oka := db.profiles[a.Key()]
	pb, okb := db.profiles[b.Key()]
	if !oka || !okb {
		return false
	}
	shared := 0
	strictly := false
	for rk, ra := range pa.records {
		rb, ok := pb.records[rk]
		if !ok {
			continue
		}
		shared++
		for name, va := range ra.Metrics {
			vb, ok := rb.Metrics[name]
			if !ok {
				return false
			}
			cmp := db.betterOrEqual(name, vb, va)
			if !cmp {
				return false
			}
			if db.strictlyBetter(name, vb, va) {
				strictly = true
			}
		}
	}
	return shared > 0 && strictly
}

func (db *DB) betterOrEqual(metric string, x, y float64) bool {
	m := db.app.Metric(metric)
	if m != nil && m.Better == spec.HigherIsBetter {
		return x >= y-1e-12
	}
	return x <= y+1e-12
}

func (db *DB) strictlyBetter(metric string, x, y float64) bool {
	m := db.app.Metric(metric)
	if m != nil && m.Better == spec.HigherIsBetter {
		return x > y*(1+1e-9)+1e-12
	}
	return x < y*(1-1e-9)-1e-12
}

// Prune removes every configuration dominated by another, returning the
// keys of the removed configurations in deterministic order.
func (db *DB) Prune() []string {
	cfgs := db.Configs()
	removed := []string{}
	for _, a := range cfgs {
		if _, still := db.profiles[a.Key()]; !still {
			continue
		}
		for _, b := range cfgs {
			if a.Key() == b.Key() {
				continue
			}
			if _, still := db.profiles[b.Key()]; !still {
				continue
			}
			if db.Dominated(a, b) {
				delete(db.profiles, a.Key())
				removed = append(removed, a.Key())
				break
			}
		}
	}
	sort.Strings(removed)
	return removed
}

// Similar reports whether two configurations exhibit metric values within
// relative tolerance eps at every shared resource point (and share at
// least one point). The paper merges such configurations, storing only one.
func (db *DB) Similar(a, b spec.Config, eps float64) bool {
	pa, oka := db.profiles[a.Key()]
	pb, okb := db.profiles[b.Key()]
	if !oka || !okb {
		return false
	}
	shared := 0
	for rk, ra := range pa.records {
		rb, ok := pb.records[rk]
		if !ok {
			continue
		}
		shared++
		for name, va := range ra.Metrics {
			vb, ok := rb.Metrics[name]
			if !ok {
				return false
			}
			denom := math.Max(math.Abs(va), math.Abs(vb))
			if denom == 0 {
				continue
			}
			if math.Abs(va-vb)/denom > eps {
				return false
			}
		}
	}
	return shared > 0
}

// MergeSimilar removes configurations whose behaviour is within eps of an
// earlier (in canonical order) configuration, returning removed keys.
func (db *DB) MergeSimilar(eps float64) []string {
	cfgs := db.Configs()
	removed := []string{}
	for i := 0; i < len(cfgs); i++ {
		ki := cfgs[i].Key()
		if _, still := db.profiles[ki]; !still {
			continue
		}
		for j := i + 1; j < len(cfgs); j++ {
			kj := cfgs[j].Key()
			if _, still := db.profiles[kj]; !still {
				continue
			}
			if db.Similar(cfgs[i], cfgs[j], eps) {
				delete(db.profiles, kj)
				removed = append(removed, kj)
			}
		}
	}
	sort.Strings(removed)
	return removed
}

// Suggestion asks the profiling driver for an additional sample: the
// sensitivity analysis found that metric values change steeply between two
// adjacent lattice points along one axis, so the region should be sampled
// more densely (Section 5's sensitivity analysis tool).
type Suggestion struct {
	Config   spec.Config
	Kind     resource.Kind
	At       resource.Vector // suggested new sample point (midpoint)
	Metric   string
	RelDelta float64 // relative metric change across the interval
}

// SensitivityAnalysis scans every configuration's lattice for adjacent
// sample pairs along each axis whose metric values differ by more than
// threshold (relative), returning midpoint suggestions sorted by
// decreasing steepness.
func (db *DB) SensitivityAnalysis(threshold float64) []Suggestion {
	var out []Suggestion
	for _, cfg := range db.Configs() {
		p := db.profiles[cfg.Key()]
		l, err := db.Lattice(cfg.Key())
		if err != nil {
			continue
		}
		for _, ax := range l.Axes() {
			for i := 0; i+1 < len(ax.Points); i++ {
				lo, hi := ax.Points[i], ax.Points[i+1]
				// Compare records matching on all other dimensions.
				for _, ra := range l.Records() {
					if v, ok := ra.Resources[ax.Kind]; !ok || v != lo {
						continue
					}
					peer := ra.Resources.With(ax.Kind, hi)
					rb, ok := p.records[peer.Key()]
					if !ok {
						continue
					}
					for name, va := range ra.Metrics {
						vb, ok := rb.Metrics[name]
						if !ok {
							continue
						}
						denom := math.Max(math.Abs(va), math.Abs(vb))
						if denom == 0 {
							continue
						}
						rel := math.Abs(va-vb) / denom
						if rel > threshold {
							mid := ra.Resources.With(ax.Kind, (lo+hi)/2)
							out = append(out, Suggestion{
								Config:   cfg,
								Kind:     ax.Kind,
								At:       mid,
								Metric:   name,
								RelDelta: rel,
							})
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RelDelta != out[j].RelDelta {
			return out[i].RelDelta > out[j].RelDelta
		}
		if ki, kj := out[i].Config.Key(), out[j].Config.Key(); ki != kj {
			return ki < kj
		}
		return out[i].At.Key() < out[j].At.Key()
	})
	return out
}
