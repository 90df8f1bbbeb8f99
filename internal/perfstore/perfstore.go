package perfstore

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"tunable/internal/metrics"
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
	// OutlierK is the robust z-score threshold beyond which a sample's
	// deviation from the model is rejected as an outlier (default 3.5).
	OutlierK float64
	// WindowSize bounds the per-(config, metric) deviation window the
	// outlier filter ranks against (default 16).
	WindowSize int
	// MinWindow is how many deviations must accumulate before the MAD test
	// activates; below it only HardLimit applies (default 4).
	MinWindow int
	// HardLimit rejects samples whose relative deviation from the model
	// exceeds this factor during bootstrap (default 8.0).
	HardLimit float64
	// SnapDigits coarsens sample resource vectors to this many significant
	// digits before folding (default 2; negative disables). Monitor
	// estimates carry measurement noise — CPU 0.8997 now, 0.9003 a moment
	// later — and without coarsening every sample founds its own overlay
	// record: the lattice fragments into near-duplicates, none of which
	// ever accumulates enough samples to converge, and a single
	// unrepresentative observation (one caught mid-transition) keeps its
	// own point forever. Snapping merges them into one record that the
	// exponential refinement actually sharpens.
	SnapDigits int
	// CacheEntries bounds the materialized profile cache (default 256).
	CacheEntries int
	// CacheTTL expires cached profiles (default 0: no expiry).
	CacheTTL time.Duration
	// Now is the clock CacheTTL reads; required when CacheTTL > 0.
	Now func() time.Duration
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 32
	}
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = 0.25
	}
	if o.OutlierK <= 0 {
		o.OutlierK = 3.5
	}
	if o.WindowSize <= 0 {
		o.WindowSize = 16
	}
	if o.MinWindow <= 0 {
		o.MinWindow = 4
	}
	if o.HardLimit <= 0 {
		o.HardLimit = 8.0
	}
	if o.SnapDigits == 0 {
		o.SnapDigits = 2
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	return o
}

// foldStripes is the number of striped per-configuration fold locks.
const foldStripes = 16

// PerfStore is the live performance model: a profiled prior (which may be
// nil for a cold start), a pluggable persistence backend for refined
// overlays, an outlier-filtered ingest pipeline, and a read-through
// materialized cache. It implements perfdb.Model, so the scheduler and the
// adaptation framework run over it exactly as over the offline database.
type PerfStore struct {
	app   *spec.App
	prior *perfdb.DB // offline profiled database; may be nil
	store Store
	opts  Options
	cache *profileCache

	// folds serializes refinements per configuration (hash-striped): a
	// fold is load-modify-save against the Store, and two concurrent folds
	// of the same config must not interleave or one update is lost.
	folds [foldStripes]sync.Mutex

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

	// Instruments are nil until EnableMetrics; nil instruments no-op.
	mAccepted *metrics.Counter
	mOutlier  *metrics.Counter
	mInvalid  *metrics.Counter
	mRefine   *metrics.Histogram
	mWALBytes *metrics.Gauge
}

// New creates a live store over a profiled prior (nil for cold start) and
// a persistence backend.
func New(app *spec.App, prior *perfdb.DB, store Store, opts Options) (*PerfStore, error) {
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
		cache:   newProfileCache(opts.CacheEntries, opts.CacheTTL, opts.Now),
		windows: make(map[string]*devWindow),
	}
	return s, nil
}

// EnableMetrics registers the store's instruments on reg (nil-safe, the
// repo-wide idiom): perfstore_samples_total{verdict}, cache hit/miss
// counters, the refinement-delta histogram, and — when the backend is a
// WALStore — the live WAL size gauge.
func (s *PerfStore) EnableMetrics(reg *metrics.Registry) {
	s.mAccepted = reg.Counter("perfstore_samples_total",
		"Live telemetry samples ingested, by filter verdict.", metrics.L("verdict", "accepted"))
	s.mOutlier = reg.Counter("perfstore_samples_total",
		"Live telemetry samples ingested, by filter verdict.", metrics.L("verdict", "outlier"))
	s.mInvalid = reg.Counter("perfstore_samples_total",
		"Live telemetry samples ingested, by filter verdict.", metrics.L("verdict", "invalid"))
	s.cache.hits = reg.Counter("perfstore_cache_hits_total",
		"Profile cache lookups served from a warm entry.")
	s.cache.misses = reg.Counter("perfstore_cache_misses_total",
		"Profile cache lookups that loaded from the backend store.")
	s.mRefine = reg.Histogram("perfstore_refine_delta",
		"Relative change applied to a profile metric by one refinement fold.")
	s.mWALBytes = reg.Gauge("perfstore_wal_bytes",
		"Bytes held in live write-ahead log segments (drops on compaction).")
	if w, ok := s.store.(*WALStore); ok {
		g := s.mWALBytes
		w.mu.Lock()
		w.onWALBytes = func(n int64) { g.Set(float64(n)) }
		g.Set(float64(w.walBytes))
		w.mu.Unlock()
	}
}

// OnRefine registers the refinement notification hook. Call before ingest
// begins; the hook runs on the ingesting goroutine and must not call back
// into Offer or Flush.
func (s *PerfStore) OnRefine(fn func(configKey string, delta float64)) { s.onRefine = fn }

// App implements perfdb.Model.
func (s *PerfStore) App() *spec.App { return s.app }

// Store exposes the persistence backend (the coordinator snapshots and
// compacts through it).
func (s *PerfStore) Store() Store { return s.store }

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
	if keys, err := s.store.Keys(); err == nil {
		for _, k := range keys {
			if _, ok := byKey[k]; ok {
				continue
			}
			if cfg, err := s.app.ParseConfigKey(k); err == nil {
				byKey[k] = cfg
			}
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

// entry returns the loaded cache entry for a configuration key.
func (s *PerfStore) entry(configKey string) *cacheEntry {
	return s.cache.get(configKey, s.loadAndMaterialize)
}

// loadAndMaterialize is the cache's backend loader: fetch the refined
// overlay (absent ⇒ empty profile) and materialize the merged model.
func (s *PerfStore) loadAndMaterialize(configKey string) (*Profile, *perfdb.Lattice, error) {
	p, err := s.store.Load(configKey)
	if err == ErrNotFound {
		p = &Profile{ConfigKey: configKey}
	} else if err != nil {
		return nil, nil, err
	}
	lat, err := s.materialize(configKey, p)
	if err != nil {
		return nil, nil, err
	}
	return p, lat, nil
}

// materialize compiles the lattice answering queries for one
// configuration: the prior's records wherever the overlay is silent, the
// overlay's records where it speaks (override, not average), giving
// Predict the full interpolation/nearest machinery over the merged
// lattice. Compiling here, once per load or fold, keeps the warm read path
// to a cache lookup plus the lattice query, and hands concurrent readers a
// finished, immutable lattice. It is nil when there are no records at all.
func (s *PerfStore) materialize(configKey string, overlay *Profile) (*perfdb.Lattice, error) {
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

// Records implements perfdb.Model over the merged (prior ∪ overlay) view.
func (s *PerfStore) Records(cfg spec.Config) []*perfdb.Record {
	l, err := s.Lattice(cfg.Key())
	if err != nil {
		return nil
	}
	return l.Records()
}

// Predict implements perfdb.Model: serve from the materialized cache,
// loading the overlay single-flight on a cold configuration. A
// configuration with neither prior nor refined records reports
// perfdb.ErrNoProfile.
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
	e := s.entry(configKey)
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.err != nil {
		return nil, e.err
	}
	if e.lat == nil {
		return nil, fmt.Errorf("%w: %s", perfdb.ErrNoProfile, configKey)
	}
	return e.lat, nil
}

// Offer queues one telemetry sample, flushing the batch once BatchSize
// accumulate. Invalid samples (unknown config or metric, non-finite
// values) are counted and dropped immediately.
func (s *PerfStore) Offer(sample Sample) {
	if err := sample.validate(s.app); err != nil {
		s.mInvalid.Inc()
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
		s.mOutlier.Inc()
		return false
	}
	if err := s.fold(sample); err != nil {
		// Persistence failure: the sample is lost, not the process.
		s.mInvalid.Inc()
		return false
	}
	s.mAccepted.Inc()
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
// folds of the same config), then reconcile the cache in place.
func (s *PerfStore) fold(sample *Sample) error {
	key := sample.Config.Key()
	mu := s.stripe(key)
	mu.Lock()
	defer mu.Unlock()

	p, err := s.store.Load(key)
	if err == ErrNotFound {
		p = &Profile{ConfigKey: key}
	} else if err != nil {
		return err
	}
	delta := s.foldInto(p, s.snapRes(sample.Resources), sample.Observed, s.opts.Alpha)
	p.Version++
	if err := s.store.Save(p); err != nil {
		return err
	}
	// Reconcile a warm cache entry in place; apply's version gate makes
	// this safe against a concurrent loader completing with stale state.
	if e, ok := s.cache.peek(key); ok {
		lat, err := s.materialize(key, p)
		if err == nil {
			e.apply(p, lat)
		} else {
			s.cache.remove(key)
		}
	}
	if s.onRefine != nil {
		s.onRefine(key, delta)
	}
	return nil
}

// foldInto merges one observation into a profile at its resource point —
// exponentially weighted refinement of an existing record, or a new
// record extending the lattice — and returns the largest relative
// movement it applied. The refine-delta histogram observes the per-metric
// movements.
func (s *PerfStore) foldInto(p *Profile, res resource.Vector, obs spec.Metrics, alpha float64) float64 {
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
			d := relDev(next, cur)
			s.mRefine.Observe(d)
			if math.Abs(d) > maxDelta {
				maxDelta = math.Abs(d)
			}
		}
		// Effective sample mass under the EW update; saturates at 1/α.
		r.Weight = 1 + (1-alpha)*r.Weight
		r.Samples++
		return maxDelta
	}
	p.Records = append(p.Records, ProfileRecord{
		Resources: resourcesFrom(res),
		Metrics:   map[string]float64(obs.Clone()),
		Weight:    1,
		Samples:   1,
	})
	p.normalize()
	s.mRefine.Observe(1) // a new lattice point is a full-size delta
	return 1
}

// snapRes coarsens a resource vector to SnapDigits significant digits
// per component, so noisy monitor estimates of the same operating point
// fold into the same lattice record.
func (s *PerfStore) snapRes(res resource.Vector) resource.Vector {
	d := s.opts.SnapDigits
	if d <= 0 {
		return res
	}
	out := make(resource.Vector, len(res))
	for k, v := range res {
		out[k] = sigRound(v, d)
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

// CacheStats reports live cache entries and total evictions (tests and
// the bench harness read it).
func (s *PerfStore) CacheStats() (entries int, evictions int64) {
	return s.cache.stats()
}

// InvalidateCache drops a configuration's cached materialization, forcing
// the next lookup through the backend (tests use it to race eviction
// against single-flight loads).
func (s *PerfStore) InvalidateCache(cfg spec.Config) {
	s.cache.remove(cfg.Key())
}

// Close flushes pending samples and closes the backend.
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
// against its window: during bootstrap (window below MinWindow) only the
// hard limit applies; after that a robust z-score against the windowed
// median/MAD rejects transients at OutlierK.
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
			w = &devWindow{ring: make([]float64, s.opts.WindowSize)}
			s.windows[wk] = w
		}
		if w.fill < s.opts.MinWindow {
			if math.Abs(d) > s.opts.HardLimit {
				ok = false
			}
		} else {
			med, mad := w.medMAD()
			// 1.4826·MAD estimates σ for normal data; the additive floor
			// keeps a degenerate (constant) window from rejecting
			// everything.
			z := math.Abs(d-med) / (1.4826*mad + 0.05)
			if z > s.opts.OutlierK {
				ok = false
			}
		}
		// Push unconditionally: sustained drift must be able to move the
		// median even while its first samples are being rejected.
		w.push(d)
	}
	return ok
}
