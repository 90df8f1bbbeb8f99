package perfstore

import (
	"fmt"

	"tunable/internal/perfdb"
)

// MergeStats reports what a sweep merge changed.
type MergeStats struct {
	Configs int // profiles touched
	Merged  int // records weight-averaged with an existing overlay record
	Added   int // records newly added to an overlay
}

// MergeSweep folds a freshly profiled sweep into a store — how
// avis-profile writes its sweep. Into an empty store it copies the sweep's
// records, so a PerfStore over it with no prior predicts exactly as the
// sweep's database does. Re-profiling and live refinement meet here: where
// the sweep covers a resource point the overlay already refined, the two
// estimates are combined by weight (the sweep record weighs its averaged
// run count, the overlay record its effective EW sample mass), so neither
// a long-lived online estimate nor a deliberate re-sweep silently clobbers
// the other. Sweep points the overlay never touched are added outright.
//
// Only one profile Save is issued per configuration, keeping the WAL
// append count proportional to configurations, not lattice points.
func MergeSweep(store *Store, sweep *perfdb.DB) (MergeStats, error) {
	var st MergeStats
	for _, cfg := range sweep.Configs() {
		key := cfg.Key()
		p, err := store.Load(key)
		if err != nil {
			p = &profile{ConfigKey: key}
		}
		changed := false
		for _, rec := range sweep.Records(cfg) {
			w := float64(rec.Samples)
			if w <= 0 {
				w = 1
			}
			rk := rec.Resources.Key()
			if i := p.find(rk); i >= 0 {
				r := &p.Records[i]
				total := r.Weight + w
				for name, v := range rec.Metrics {
					cur, ok := r.Metrics[name]
					if !ok {
						r.Metrics[name] = v
						continue
					}
					r.Metrics[name] = (cur*r.Weight + v*w) / total
				}
				r.Weight = total
				r.Samples += int64(rec.Samples)
				st.Merged++
			} else {
				p.Records = append(p.Records, profileRecord{
					Resources: rec.Resources.Clone(),
					Metrics:   rec.Metrics.Clone(),
					Weight:    w,
					Samples:   int64(rec.Samples),
				})
				st.Added++
			}
			changed = true
		}
		if !changed {
			continue
		}
		p.Version++
		if err := store.Save(p); err != nil {
			return st, fmt.Errorf("perfstore: merge save %s: %w", key, err)
		}
		st.Configs++
	}
	return st, nil
}
