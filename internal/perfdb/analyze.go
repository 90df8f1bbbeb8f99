package perfdb

import (
	"math"
	"sort"

	"tunable/internal/resource"
	"tunable/internal/spec"
)

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
