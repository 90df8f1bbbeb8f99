// Package perfdb implements the paper's performance database (Section 5.2):
// a profile-based model of application behaviour mapping (configuration,
// resource conditions) → quality metrics. Records are produced by the
// profiling driver sweeping each configuration through the virtual testbed;
// at run time the resource scheduler queries the database — with
// multilinear interpolation between sample points, or discrete best-match
// lookup as the paper's early implementation did (Section 7.1) — to predict
// how each candidate configuration would perform under observed resource
// conditions.
package perfdb

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"tunable/internal/resource"
	"tunable/internal/spec"
)

// ErrNoProfile reports that a database holds no records for a requested
// configuration. Predict wraps it with the configuration key, so callers
// test with errors.Is and degrade gracefully (the scheduler skips the
// candidate) instead of string-matching an ad-hoc error.
var ErrNoProfile = errors.New("perfdb: no profile for configuration")

// Model is the read side of a performance model: what the resource
// scheduler needs to evaluate candidate configurations. *DB is the static,
// testbed-profiled implementation; perfstore's live store implements the
// same interface over refined, persisted profiles.
type Model interface {
	// App returns the application specification the model describes.
	App() *spec.App
	// Configs lists the configurations with at least one record.
	Configs() []spec.Config
	// Predict estimates the metrics cfg would achieve under res. A
	// configuration with no profile reports an error wrapping ErrNoProfile.
	Predict(cfg spec.Config, res resource.Vector) (spec.Metrics, error)
	// Lattice returns the compiled profile of the configuration with
	// canonical key configKey, as it stands now: a caller evaluating one
	// configuration at many resource points (the scheduler) resolves it
	// once and queries the lattice, without building a key or a result map
	// per point. A configuration with no profile reports an error wrapping
	// ErrNoProfile.
	Lattice(configKey string) (*Lattice, error)
}

// Record is one profiled sample: the quality metrics a configuration
// achieved under specific resource conditions in the testbed.
type Record struct {
	Config    spec.Config
	Resources resource.Vector
	Metrics   spec.Metrics
	Samples   int // number of runs averaged into Metrics
}

// PredictMode selects the lookup strategy.
type PredictMode int

const (
	// Interpolate performs multilinear interpolation between lattice
	// points, falling back to nearest-neighbour where the lattice is
	// incomplete (the paper's general mechanism, Section 5).
	Interpolate PredictMode = iota
	// NearestOnly reproduces the paper's implemented scheduler, which
	// "does not do any interpolation on the performance profiles; a new
	// configuration is selected by examining discrete points ... that
	// provide the best match" (Section 7.1).
	NearestOnly
)

// DB is an in-memory performance database for one application.
type DB struct {
	app      *spec.App
	profiles map[string]*configProfile
	mode     PredictMode
}

// configProfile holds all samples for one configuration.
type configProfile struct {
	config  spec.Config
	records map[string]*Record // keyed by resource vector Key
	dims    map[resource.Kind]bool

	// compiled is the read form of records, built by the first query after
	// a change. Concurrent readers may race to build it; each builds a
	// complete lattice from the same records and the first published wins.
	compiled atomic.Pointer[Lattice]
}

var _ Model = (*DB)(nil)

// New creates an empty database for app.
func New(app *spec.App) *DB {
	return &DB{app: app, profiles: make(map[string]*configProfile)}
}

// App returns the application specification the database models.
func (db *DB) App() *spec.App { return db.app }

// SetMode selects the prediction strategy (default Interpolate).
func (db *DB) SetMode(m PredictMode) {
	db.mode = m
	for _, p := range db.profiles {
		p.compiled.Store(nil)
	}
}

// Mode returns the current prediction strategy.
func (db *DB) Mode() PredictMode { return db.mode }

// Add inserts a sample. Repeated samples at the same (config, resources)
// point are averaged, mirroring the driver's repeated executions. Add (like
// SetMode) must not run concurrently with queries; queries may run
// concurrently with each other.
func (db *DB) Add(cfg spec.Config, res resource.Vector, m spec.Metrics) error {
	if err := db.app.ValidateConfig(cfg); err != nil {
		return err
	}
	for name := range m {
		if db.app.Metric(name) == nil {
			return fmt.Errorf("perfdb: unknown metric %q", name)
		}
	}
	key := cfg.Key()
	p, ok := db.profiles[key]
	if !ok {
		p = &configProfile{
			config:  cfg.Clone(),
			records: make(map[string]*Record),
			dims:    make(map[resource.Kind]bool),
		}
		db.profiles[key] = p
	}
	p.compiled.Store(nil)
	for k := range res {
		p.dims[k] = true
	}
	rk := res.Key()
	if rec, dup := p.records[rk]; dup {
		// Incremental mean of each metric.
		n := float64(rec.Samples)
		for name, v := range m {
			rec.Metrics[name] = (rec.Metrics[name]*n + v) / (n + 1)
		}
		rec.Samples++
		return nil
	}
	p.records[rk] = &Record{
		Config:    cfg.Clone(),
		Resources: res.Clone(),
		Metrics:   m.Clone(),
		Samples:   1,
	}
	return nil
}

// Configs returns the configurations with at least one record, sorted by
// canonical key.
func (db *DB) Configs() []spec.Config {
	keys := make([]string, 0, len(db.profiles))
	for k := range db.profiles {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]spec.Config, len(keys))
	for i, k := range keys {
		out[i] = db.profiles[k].config
	}
	return out
}

// Records returns all records for a configuration in deterministic order.
// The slice is shared with the compiled profile; do not modify it.
func (db *DB) Records(cfg spec.Config) []*Record {
	l, err := db.lattice(cfg)
	if err != nil {
		return nil
	}
	return l.Records()
}

// Len returns the total number of records.
func (db *DB) Len() int {
	n := 0
	for _, p := range db.profiles {
		n += len(p.records)
	}
	return n
}

// Lookup returns the exact record at (cfg, res) if one exists.
func (db *DB) Lookup(cfg spec.Config, res resource.Vector) (*Record, bool) {
	p, ok := db.profiles[cfg.Key()]
	if !ok {
		return nil, false
	}
	rec, ok := p.records[res.Key()]
	return rec, ok
}

// Lattice implements Model: the profile's compiled read form, built on
// the first query after the profile (or the mode) last changed.
func (db *DB) Lattice(configKey string) (*Lattice, error) {
	if p, ok := db.profiles[configKey]; ok && len(p.records) > 0 {
		return p.lattice(db.mode), nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoProfile, configKey)
}

// lattice is Lattice by configuration, with the key built on the stack.
func (db *DB) lattice(cfg spec.Config) (*Lattice, error) {
	var buf [96]byte
	key := cfg.AppendKey(buf[:0])
	if p, ok := db.profiles[string(key)]; ok && len(p.records) > 0 {
		return p.lattice(db.mode), nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoProfile, string(key))
}

// lattice returns the profile's compiled form, compiling it if no reader
// has since the last change.
func (p *configProfile) lattice(mode PredictMode) *Lattice {
	if l := p.compiled.Load(); l != nil {
		return l
	}
	p.compiled.CompareAndSwap(nil, p.compile(mode))
	return p.compiled.Load()
}

// Nearest returns the record whose resource point is closest to res.
func (db *DB) Nearest(cfg spec.Config, res resource.Vector) (*Record, bool) {
	l, err := db.lattice(cfg)
	if err != nil {
		return nil, false
	}
	return l.Nearest(res)
}

// Predict estimates the metrics cfg would achieve under resource
// conditions res. In Interpolate mode it performs multilinear
// interpolation over the sample lattice (clamping to the lattice boundary,
// which extrapolates by nearest edge); where lattice corners are missing,
// or in NearestOnly mode, it falls back to the nearest sampled point.
func (db *DB) Predict(cfg spec.Config, res resource.Vector) (spec.Metrics, error) {
	l, err := db.lattice(cfg)
	if err != nil {
		return nil, err
	}
	return l.Predict(res)
}
