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
	Resources map[string]float64 `json:"resources"`
	Metrics   map[string]float64 `json:"metrics"`
	// Weight is the effective sample mass behind Metrics under the EW
	// update (w' = 1 + (1-α)·w): it saturates at 1/α and is what sweep
	// merges weigh against.
	Weight float64 `json:"weight"`
	// Samples counts live samples folded into this record.
	Samples int64 `json:"samples"`
}

// Vector returns the record's resource point as a resource.Vector.
func (r *profileRecord) Vector() resource.Vector {
	v := make(resource.Vector, len(r.Resources))
	for k, x := range r.Resources {
		v[resource.Kind(k)] = x
	}
	return v
}

// resKey is the canonical map key of the record's resource point,
// quantized identically to perfdb's record keys so overlay records line up
// with prior records.
func (r *profileRecord) resKey() string { return r.Vector().Key() }

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
		nr := profileRecord{
			Resources: make(map[string]float64, len(r.Resources)),
			Metrics:   make(map[string]float64, len(r.Metrics)),
			Weight:    r.Weight,
			Samples:   r.Samples,
		}
		for k, v := range r.Resources {
			nr.Resources[k] = v
		}
		for k, v := range r.Metrics {
			nr.Metrics[k] = v
		}
		out.Records[i] = nr
	}
	return out
}

// find returns the index of the record at the given canonical resource
// key, or -1.
func (p *profile) find(resKey string) int {
	for i := range p.Records {
		if p.Records[i].resKey() == resKey {
			return i
		}
	}
	return -1
}

// normalize sorts records into canonical (resource key) order.
func (p *profile) normalize() {
	sort.Slice(p.Records, func(i, j int) bool {
		return p.Records[i].resKey() < p.Records[j].resKey()
	})
}

// check rejects a decoded profile the store cannot hold: a JSON null, or
// records with no configuration key to file them under. Snapshot and log
// replay both pass through it.
func (p *profile) check() error {
	if p == nil {
		return fmt.Errorf("perfstore: null profile")
	}
	if p.ConfigKey == "" && len(p.Records) > 0 {
		return fmt.Errorf("perfstore: profile with records but no config key")
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
	p.normalize()
	return p, nil
}

// metricsOf converts a record's metric map to spec.Metrics.
func metricsOf(m map[string]float64) spec.Metrics {
	out := make(spec.Metrics, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// resourcesFrom converts a resource.Vector to the profile's portable map.
func resourcesFrom(v resource.Vector) map[string]float64 {
	out := make(map[string]float64, len(v))
	for k, x := range v {
		out[string(k)] = x
	}
	return out
}
