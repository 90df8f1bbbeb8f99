package perfstore

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/spec"
)

// Options tunes the ingest and refinement pipeline. Zero values take
// defaults.
type Options struct {
	// BatchSize is how many offered samples accumulate before an implicit
	// Flush (default 32). Offer never blocks on persistence for less than
	// a full batch.
	BatchSize int
	// Alpha is the exponential weight of one accepted sample when folding
	// into a profile record: new = (1-α)·cur + α·obs (default 0.25).
	Alpha float64
}

// The ingest filter and the lattice snapping.
const (
	// outlierK is the robust z-score threshold beyond which a sample's
	// deviation from the model is rejected as an outlier.
	outlierK = 3.5
	// windowSize bounds the per-(config, metric) deviation window the
	// outlier filter ranks against.
	windowSize = 16
	// minWindow is how many deviations must accumulate before the MAD
	// test activates; below it only hardLimit applies.
	minWindow = 4
	// hardLimit rejects samples whose relative deviation from the model
	// exceeds this factor during bootstrap.
	hardLimit = 8.0
	// snapDigits coarsens sample resource vectors to this many
	// significant digits before folding. Monitor estimates carry
	// measurement noise — CPU 0.8997 now, 0.9003 a moment later — and
	// without coarsening every sample founds its own overlay record: the
	// lattice fragments into near-duplicates, none of which ever
	// accumulates enough samples to converge, and a single
	// unrepresentative observation (one caught mid-transition) keeps its
	// own point forever. Snapping merges them into one record that the
	// exponential refinement actually sharpens.
	snapDigits = 2
)

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 32
	}
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = 0.25
	}
	return o
}

// foldStripes is the number of striped per-configuration fold locks.
const foldStripes = 16

// PerfStore is the live performance model: a profiled prior (which may be
// nil for a cold start), the Store of refined overlays, an
// outlier-filtered ingest pipeline, and the compiled lattice of each
// configuration it has read. It implements perfdb.Model, so the scheduler
// and the adaptation framework run over it exactly as over the offline
// database.
type PerfStore struct {
	app   *spec.App
	prior *perfdb.DB // offline profiled database; may be nil
	store *Store
	opts  Options

	// folds serializes, per configuration (hash-striped), refinements and
	// lattice compiles: a fold is load-modify-save against the Store, and
	// two concurrent folds of the same config must not interleave or one
	// update is lost; a cold read compiles under the same lock, so
	// concurrent cold readers compile once and a compile never publishes
	// over a newer fold.
	folds [foldStripes]sync.Mutex

	// lats holds the compiled prior ∪ overlay lattice of every
	// configuration read so far (nil: neither has records). latMu guards
	// the map; an entry is written only under its configuration's fold
	// stripe (InvalidateCache only deletes).
	latMu sync.Mutex
	lats  map[string]*perfdb.Lattice

	// mu guards the pending batch and the deviation windows.
	mu      sync.Mutex
	batch   []Sample
	windows map[string]*devWindow

	// onRefine (set once, before ingest starts) is notified after each
	// fold with the profile's config key and the largest relative movement
	// the fold applied. The adaptation framework hangs a model-drift
	// trigger off it: resource conditions are not the only thing that can
	// invalidate the active configuration — the model learning that the
	// prior was wrong must also be able to wake the scheduler.
	onRefine func(configKey string, delta float64)
}

// New creates a live store over a profiled prior (nil for cold start) and
// the store of refined overlays.
func New(app *spec.App, prior *perfdb.DB, store *Store, opts Options) (*PerfStore, error) {
	if app == nil {
		return nil, fmt.Errorf("perfstore: nil app")
	}
	if store == nil {
		return nil, fmt.Errorf("perfstore: nil store")
	}
	if prior != nil && prior.App() != nil && prior.App().Name != app.Name {
		return nil, fmt.Errorf("perfstore: prior is for app %q, want %q", prior.App().Name, app.Name)
	}
	opts = opts.withDefaults()
	s := &PerfStore{
		app:     app,
		prior:   prior,
		store:   store,
		opts:    opts,
		lats:    make(map[string]*perfdb.Lattice),
		windows: make(map[string]*devWindow),
	}
	return s, nil
}

// OnRefine registers the refinement notification hook. Call before ingest
// begins; the hook runs on the ingesting goroutine after the fold's locks
// are released (so it may read the model) and must not call back into
// Offer or Flush.
func (s *PerfStore) OnRefine(fn func(configKey string, delta float64)) { s.onRefine = fn }

// App implements perfdb.Model.
func (s *PerfStore) App() *spec.App { return s.app }

// Store exposes the store of refined overlays.
func (s *PerfStore) Store() *Store { return s.store }

// Configs implements perfdb.Model: the union of prior configurations and
// configurations the store has refined profiles for, in canonical key
// order.
func (s *PerfStore) Configs() []spec.Config {
	byKey := make(map[string]spec.Config)
	if s.prior != nil {
		for _, c := range s.prior.Configs() {
			byKey[c.Key()] = c
		}
	}
	for _, k := range s.store.Keys() {
		if _, ok := byKey[k]; ok {
			continue
		}
		if cfg, err := s.app.ParseConfigKey(k); err == nil {
			byKey[k] = cfg
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]spec.Config, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

// load returns the refined overlay stored under configKey, or an empty
// profile when the store has none.
func (s *PerfStore) load(configKey string) *profile {
	p, err := s.store.Load(configKey)
	if err != nil {
		return &profile{ConfigKey: configKey}
	}
	return p
}

// materialize compiles the lattice answering queries for one
// configuration: the prior's records wherever the overlay is silent, the
// overlay's records where it speaks (override, not average), giving
// Predict the full interpolation/nearest machinery over the merged
// lattice. Compiling here, once per cold read or fold, keeps the warm read
// path to a map lookup plus the lattice query, and hands concurrent readers
// a finished, immutable lattice. It is nil when there are no records at all.
func (s *PerfStore) materialize(configKey string, overlay *profile) (*perfdb.Lattice, error) {
	cfg, err := s.app.ParseConfigKey(configKey)
	if err != nil {
		return nil, fmt.Errorf("perfstore: materialize: %w", err)
	}
	db := perfdb.New(s.app)
	if s.prior != nil {
		db.SetMode(s.prior.Mode())
	}
	overlaid := make(map[string]bool, len(overlay.Records))
	for i := range overlay.Records {
		overlaid[overlay.Records[i].resKey()] = true
	}
	if s.prior != nil {
		for _, rec := range s.prior.Records(cfg) {
			if overlaid[rec.Resources.Key()] {
				continue
			}
			if err := db.Add(cfg, rec.Resources, rec.Metrics); err != nil {
				return nil, err
			}
		}
	}
	for i := range overlay.Records {
		r := &overlay.Records[i]
		if err := db.Add(cfg, r.Vector(), metricsOf(r.Metrics)); err != nil {
			return nil, err
		}
	}
	if db.Len() == 0 {
		return nil, nil
	}
	return db.Lattice(cfg.Key())
}

// Predict implements perfdb.Model over the configuration's compiled
// lattice, compiling it on the first read. A configuration with neither
// prior nor refined records reports perfdb.ErrNoProfile.
func (s *PerfStore) Predict(cfg spec.Config, res resource.Vector) (spec.Metrics, error) {
	l, err := s.Lattice(cfg.Key())
	if err != nil {
		return nil, err
	}
	return l.Predict(res)
}

// Lattice implements perfdb.Model: the configuration's merged lattice as
// of the newest fold. Later folds publish new lattices; one already
// returned is never modified.
func (s *PerfStore) Lattice(configKey string) (*perfdb.Lattice, error) {
	l, ok := s.held(configKey)
	if !ok {
		var err error
		if l, err = s.compile(configKey); err != nil {
			return nil, err
		}
	}
	if l == nil {
		return nil, fmt.Errorf("%w: %s", perfdb.ErrNoProfile, configKey)
	}
	return l, nil
}

// compile is a cold read: under the configuration's fold stripe, compile
// and publish its lattice unless another reader or a fold got there first.
// A failed compile publishes nothing, so the next read retries.
func (s *PerfStore) compile(configKey string) (*perfdb.Lattice, error) {
	mu := s.stripe(configKey)
	mu.Lock()
	defer mu.Unlock()
	if l, ok := s.held(configKey); ok {
		return l, nil
	}
	l, err := s.materialize(configKey, s.load(configKey))
	if err != nil {
		return nil, err
	}
	s.publish(configKey, l)
	return l, nil
}

// held returns the published lattice of configKey, if there is one.
func (s *PerfStore) held(configKey string) (*perfdb.Lattice, bool) {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	l, ok := s.lats[configKey]
	return l, ok
}

// publish installs a configuration's compiled lattice; callers hold its
// fold stripe.
func (s *PerfStore) publish(configKey string, l *perfdb.Lattice) {
	s.latMu.Lock()
	s.lats[configKey] = l
	s.latMu.Unlock()
}

// Offer queues one telemetry sample, flushing the batch once BatchSize
// accumulate. Invalid samples (unknown config or metric, non-finite
// values) are dropped immediately.
func (s *PerfStore) Offer(sample Sample) {
	if sample.validate(s.app) != nil {
		return
	}
	s.mu.Lock()
	s.batch = append(s.batch, sample)
	flush := len(s.batch) >= s.opts.BatchSize
	var pending []Sample
	if flush {
		pending = s.batch
		s.batch = nil
	}
	s.mu.Unlock()
	if flush {
		s.ingest(pending)
	}
}

// Flush processes any queued samples immediately and reports how many
// were accepted into profiles.
func (s *PerfStore) Flush() int {
	s.mu.Lock()
	pending := s.batch
	s.batch = nil
	s.mu.Unlock()
	return s.ingest(pending)
}

// ingest filters and folds a batch, returning the accepted count.
func (s *PerfStore) ingest(batch []Sample) int {
	accepted := 0
	for i := range batch {
		if s.ingestOne(&batch[i]) {
			accepted++
		}
	}
	return accepted
}

// ingestOne filters one sample against the current model and, when
// accepted, folds it into the configuration's profile.
func (s *PerfStore) ingestOne(sample *Sample) bool {
	if !s.admit(sample) {
		return false
	}
	delta, err := s.fold(sample)
	if err != nil {
		// Persistence failure: the sample is lost, not the process.
		return false
	}
	if s.onRefine != nil {
		s.onRefine(sample.Config.Key(), delta)
	}
	return true
}

// stripe returns the fold lock for a configuration key.
func (s *PerfStore) stripe(configKey string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(configKey))
	return &s.folds[h.Sum32()%foldStripes]
}

// fold applies one accepted sample to its configuration's profile:
// load-modify-save under the config's stripe lock (serializing concurrent
// folds of the same config), then republish the compiled lattice. It
// returns the largest relative movement the fold applied.
func (s *PerfStore) fold(sample *Sample) (float64, error) {
	key := sample.Config.Key()
	mu := s.stripe(key)
	mu.Lock()
	defer mu.Unlock()

	p := s.load(key)
	delta := s.foldInto(p, s.snapRes(sample.Resources), sample.Observed, s.opts.Alpha)
	p.Version++
	if err := s.store.Save(p); err != nil {
		return 0, err
	}
	l, err := s.materialize(key, p)
	if err != nil {
		s.InvalidateCache(sample.Config) // the next read recompiles from the store
		return delta, nil
	}
	s.publish(key, l)
	return delta, nil
}

// foldInto merges one observation into a profile at its resource point —
// exponentially weighted refinement of an existing record, or a new
// record extending the lattice — and returns the largest relative
// movement it applied.
func (s *PerfStore) foldInto(p *profile, res resource.Vector, obs spec.Metrics, alpha float64) float64 {
	rk := res.Key()
	if i := p.find(rk); i >= 0 {
		r := &p.Records[i]
		maxDelta := 0.0
		for name, v := range obs {
			cur, ok := r.Metrics[name]
			if !ok {
				r.Metrics[name] = v
				continue
			}
			next := (1-alpha)*cur + alpha*v
			r.Metrics[name] = next
			if d := relDev(next, cur); math.Abs(d) > maxDelta {
				maxDelta = math.Abs(d)
			}
		}
		// Effective sample mass under the EW update; saturates at 1/α.
		r.Weight = 1 + (1-alpha)*r.Weight
		r.Samples++
		return maxDelta
	}
	p.Records = append(p.Records, profileRecord{
		Resources: resourcesFrom(res),
		Metrics:   map[string]float64(obs.Clone()),
		Weight:    1,
		Samples:   1,
	})
	p.normalize()
	return 1 // a new lattice point is a full-size delta
}

// snapRes coarsens a resource vector to snapDigits significant digits
// per component, so noisy monitor estimates of the same operating point
// fold into the same lattice record.
func (s *PerfStore) snapRes(res resource.Vector) resource.Vector {
	out := make(resource.Vector, len(res))
	for k, v := range res {
		out[k] = sigRound(v, snapDigits)
	}
	return out
}

// sigRound rounds v to the given number of significant digits.
func sigRound(v float64, digits int) float64 {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	mag := math.Pow(10, float64(digits-1)-math.Floor(math.Log10(math.Abs(v))))
	return math.Round(v*mag) / mag
}

// CacheStats reports the compiled lattices held and, since nothing is
// ever evicted, zero evictions (the bench harness reads it).
func (s *PerfStore) CacheStats() (entries int, evictions int64) {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	return len(s.lats), 0
}

// InvalidateCache drops a configuration's compiled lattice, so the next
// read compiles it again from the store (the cold-read benchmarks use it).
func (s *PerfStore) InvalidateCache(cfg spec.Config) {
	s.latMu.Lock()
	delete(s.lats, cfg.Key())
	s.latMu.Unlock()
}

// Close flushes pending samples and closes the store.
func (s *PerfStore) Close() error {
	s.Flush()
	return s.store.Close()
}

var _ perfdb.Model = (*PerfStore)(nil)

// --- outlier filtering -----------------------------------------------------

// devWindow is a bounded ring of recent relative deviations for one
// (configuration, metric) pair. Every sample's deviation is pushed
// regardless of verdict, so sustained drift shifts the window median and
// becomes the new normal within a window's worth of samples, while an
// isolated transient stays far from the (robust) median and is rejected.
type devWindow struct {
	ring []float64
	fill int
	next int
}

func (w *devWindow) push(d float64) {
	if w.fill < len(w.ring) {
		w.ring[w.fill] = d
		w.fill++
		return
	}
	w.ring[w.next] = d
	w.next = (w.next + 1) % len(w.ring)
}

// medMAD returns the window's median and median absolute deviation.
func (w *devWindow) medMAD() (med, mad float64) {
	n := w.fill
	tmp := make([]float64, n)
	copy(tmp, w.ring[:n])
	sort.Float64s(tmp)
	med = tmp[n/2]
	if n%2 == 0 {
		med = (tmp[n/2-1] + tmp[n/2]) / 2
	}
	for i, v := range tmp {
		tmp[i] = math.Abs(v - med)
	}
	sort.Float64s(tmp)
	mad = tmp[n/2]
	if n%2 == 0 {
		mad = (tmp[n/2-1] + tmp[n/2]) / 2
	}
	return med, mad
}

// relDev is the relative deviation of obs from pred, floored so
// near-zero predictions don't blow up the ratio.
func relDev(obs, pred float64) float64 {
	return (obs - pred) / math.Max(math.Abs(pred), 1e-9)
}

// admit decides whether a sample is consistent enough with the model to
// refine it. With no prediction available (cold configuration) everything
// bootstraps in. Otherwise each metric's relative deviation is ranked
// against its window: during bootstrap (window below minWindow) only the
// hard limit applies; after that a robust z-score against the windowed
// median/MAD rejects transients at outlierK.
func (s *PerfStore) admit(sample *Sample) bool {
	pred, err := s.Predict(sample.Config, sample.Resources)
	if err != nil {
		return true // nothing to deviate from: bootstrap
	}
	key := sample.Config.Key()
	ok := true
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, obs := range sample.Observed {
		pv, has := pred[name]
		if !has {
			continue
		}
		d := relDev(obs, pv)
		wk := key + "\x00" + name
		w := s.windows[wk]
		if w == nil {
			w = &devWindow{ring: make([]float64, windowSize)}
			s.windows[wk] = w
		}
		if w.fill < minWindow {
			if math.Abs(d) > hardLimit {
				ok = false
			}
		} else {
			med, mad := w.medMAD()
			// 1.4826·MAD estimates σ for normal data; the additive floor
			// keeps a degenerate (constant) window from rejecting
			// everything.
			z := math.Abs(d-med) / (1.4826*mad + 0.05)
			if z > outlierK {
				ok = false
			}
		}
		// Push unconditionally: sustained drift must be able to move the
		// median even while its first samples are being rejected.
		w.push(d)
	}
	return ok
}
