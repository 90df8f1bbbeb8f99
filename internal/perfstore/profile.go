package perfstore

import (
	"encoding/json"
	"fmt"
	"sort"

	"tunable/internal/resource"
	"tunable/internal/spec"
)

// profileRecord is one refined sample point: the exponentially weighted
// estimate of the metrics a configuration achieves at a resource point,
// as learned from live telemetry. A record present in a profile overrides
// the profiled prior at the same resource point; records at resource
// points the prior never swept extend the lattice.
type profileRecord struct {
	Resources resource.Vector `json:"resources"`
	Metrics   spec.Metrics    `json:"metrics"`
	// Weight is the effective sample mass behind Metrics under the EW
	// update (w' = 1 + (1-α)·w): it saturates at 1/α and is what sweep
	// merges weigh against.
	Weight float64 `json:"weight"`
	// Samples counts live samples folded into this record.
	Samples int64 `json:"samples"`
}

// profile is the persisted refined overlay for one configuration. It holds
// only what live telemetry changed or added — the profiled prior shows
// through wherever the overlay is silent — so the write-ahead log stays
// proportional to observed drift, not to the sweep lattice.
type profile struct {
	ConfigKey string `json:"config"`
	// Version counts refinement folds applied to this profile; it is
	// strictly increasing across persistence round trips.
	Version uint64 `json:"version"`
	// Records are kept sorted by canonical resource key so the encoded
	// form is deterministic (snapshots must be byte-stable).
	Records []profileRecord `json:"records"`
}

// Clone deep-copies the profile.
func (p *profile) Clone() *profile {
	out := &profile{ConfigKey: p.ConfigKey, Version: p.Version}
	out.Records = make([]profileRecord, len(p.Records))
	for i, r := range p.Records {
		out.Records[i] = profileRecord{
			Resources: r.Resources.Clone(),
			Metrics:   r.Metrics.Clone(),
			Weight:    r.Weight,
			Samples:   r.Samples,
		}
	}
	return out
}

// find returns the index of the record at the given canonical resource
// key, or -1. Each record's key is rendered into one stack buffer.
func (p *profile) find(resKey string) int {
	var buf [96]byte
	for i := range p.Records {
		if string(p.Records[i].Resources.AppendKey(buf[:0])) == resKey {
			return i
		}
	}
	return -1
}

// normalize sorts records into canonical (resource key) order and returns
// their keys in that order; each key is built once.
func (p *profile) normalize() []string {
	keys := make([]string, len(p.Records))
	for i := range p.Records {
		keys[i] = p.Records[i].Resources.Key()
	}
	sort.Sort(byResKey{keys, p.Records})
	return keys
}

// byResKey sorts records by their precomputed resource keys.
type byResKey struct {
	keys []string
	recs []profileRecord
}

func (b byResKey) Len() int           { return len(b.keys) }
func (b byResKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byResKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.recs[i], b.recs[j] = b.recs[j], b.recs[i]
}

// check rejects a decoded profile the store cannot hold — a JSON null,
// records with no configuration key to file them under, or two records at
// one resource key (a fold refines only the first, and the lattice reads
// their mean) — and leaves the records in canonical order. Snapshot and
// log replay both pass through it.
func (p *profile) check() error {
	if p == nil {
		return fmt.Errorf("perfstore: null profile")
	}
	if p.ConfigKey == "" && len(p.Records) > 0 {
		return fmt.Errorf("perfstore: profile with records but no config key")
	}
	keys := p.normalize()
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return fmt.Errorf("perfstore: profile %s holds two records at %s", p.ConfigKey, keys[i])
		}
	}
	return nil
}

// decodeProfile parses an encoded profile, rejecting structural garbage
// (non-finite values are caught later at fold time).
func decodeProfile(b []byte) (*profile, error) {
	var p *profile
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("perfstore: decode profile: %w", err)
	}
	if err := p.check(); err != nil {
		return nil, err
	}
	return p, nil
}
