package perfstore

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"tunable/internal/metrics"
	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/spec"
)

const testAppSource = `
app livestore;
control_parameters {
    enum codec in {lzw, bzw};
    int level in {1, 2};
}
execution_env {
    host h;
}
qos_metric {
    duration time minimize;
    scalar quality maximize;
}
task t {
    params { codec, level }
    uses { h.cpu }
    yields { time, quality }
}
`

func testApp(t testing.TB) *spec.App {
	t.Helper()
	return spec.MustParse(testAppSource)
}

func cfgOf(codec string, level int) spec.Config {
	return spec.Config{"codec": spec.Enum(codec), "level": spec.Int(level)}
}

// testPrior sweeps a small bandwidth lattice for both codecs: lzw is fast
// at high bandwidth, bzw flat — the paper's Experiment 1 shape.
func testPrior(t testing.TB, app *spec.App) *perfdb.DB {
	t.Helper()
	db := perfdb.New(app)
	for _, bw := range []float64{50e3, 100e3, 200e3} {
		res := resource.Vector{resource.Bandwidth: bw}
		if err := db.Add(cfgOf("lzw", 1), res, spec.Metrics{"time": 5e6 / bw, "quality": 0.8}); err != nil {
			t.Fatal(err)
		}
		if err := db.Add(cfgOf("bzw", 1), res, spec.Metrics{"time": 40, "quality": 0.9}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func newTestStore(t testing.TB, prior *perfdb.DB, backend Store, opts Options) *PerfStore {
	t.Helper()
	app := testApp(t)
	if backend == nil {
		backend = NewMemStore()
	}
	s, err := New(app, prior, backend, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPredictPassesThroughPrior(t *testing.T) {
	app := testApp(t)
	prior := testPrior(t, app)
	s := newTestStore(t, prior, nil, Options{})

	res := resource.Vector{resource.Bandwidth: 100e3}
	want, err := prior.Predict(cfgOf("lzw", 1), res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Predict(cfgOf("lzw", 1), res)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got["time"]-want["time"]) > 1e-9 {
		t.Fatalf("pass-through predict: got %v want %v", got["time"], want["time"])
	}
}

func TestPredictNoProfile(t *testing.T) {
	s := newTestStore(t, nil, nil, Options{})
	_, err := s.Predict(cfgOf("lzw", 1), resource.Vector{resource.Bandwidth: 100e3})
	if !errors.Is(err, perfdb.ErrNoProfile) {
		t.Fatalf("want ErrNoProfile, got %v", err)
	}
}

func TestRefinementMovesPrediction(t *testing.T) {
	app := testApp(t)
	prior := testPrior(t, app)
	s := newTestStore(t, prior, nil, Options{BatchSize: 1})

	cfg := cfgOf("lzw", 1)
	res := resource.Vector{resource.Bandwidth: 100e3}
	before, _ := s.Predict(cfg, res)

	// Reality is consistently 30% slower than the prior said.
	obs := before["time"] * 1.3
	for i := 0; i < 20; i++ {
		s.Offer(Sample{Config: cfg, Resources: res, Observed: spec.Metrics{"time": obs, "quality": 0.8}})
	}
	after, err := s.Predict(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after["time"]-obs) > 0.05*obs {
		t.Fatalf("refined prediction %v has not converged toward observed %v (prior %v)",
			after["time"], obs, before["time"])
	}
	// The prior database itself must be untouched: refinement lives in the
	// overlay, not the offline artifact.
	p, _ := prior.Predict(cfg, res)
	if math.Abs(p["time"]-before["time"]) > 1e-9 {
		t.Fatalf("prior mutated by refinement: %v != %v", p["time"], before["time"])
	}
}

func TestRefinementExtendsLattice(t *testing.T) {
	app := testApp(t)
	prior := testPrior(t, app)
	s := newTestStore(t, prior, nil, Options{BatchSize: 1})

	cfg := cfgOf("lzw", 1)
	// A bandwidth point far below the profiled lattice: the prior clamps
	// to the 50 KB/s edge and predicts ~100s; reality is far worse.
	low := resource.Vector{resource.Bandwidth: 10e3}
	clamped, err := s.Predict(cfg, low)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		s.Offer(Sample{Config: cfg, Resources: low, Observed: spec.Metrics{"time": 500, "quality": 0.8}})
	}
	learned, err := s.Predict(cfg, low)
	if err != nil {
		t.Fatal(err)
	}
	if learned["time"] < 2*clamped["time"] {
		t.Fatalf("lattice extension not learned: clamped %v, learned %v", clamped["time"], learned["time"])
	}
	// The profiled lattice itself still answers as before.
	mid := resource.Vector{resource.Bandwidth: 150e3}
	got, _ := s.Predict(cfg, mid)
	want, _ := prior.Predict(cfg, mid)
	if math.Abs(got["time"]-want["time"]) > 1e-9 {
		t.Fatalf("interior prediction disturbed: got %v want %v", got["time"], want["time"])
	}
}

func TestOutlierRejectedDriftAccepted(t *testing.T) {
	app := testApp(t)
	prior := testPrior(t, app)
	reg := metrics.New()
	s := newTestStore(t, prior, nil, Options{BatchSize: 1})
	s.EnableMetrics(reg)

	cfg := cfgOf("lzw", 1)
	res := resource.Vector{resource.Bandwidth: 100e3}
	base, _ := s.Predict(cfg, res)

	// Settle the deviation window with on-model samples.
	for i := 0; i < 8; i++ {
		s.Offer(Sample{Config: cfg, Resources: res,
			Observed: spec.Metrics{"time": base["time"] * (1 + 0.01*float64(i%3)), "quality": 0.8}})
	}
	settled, _ := s.Predict(cfg, res)

	// One wild transient (50× slower: a GC pause, a cold cache) must be
	// rejected and must not move the model.
	s.Offer(Sample{Config: cfg, Resources: res,
		Observed: spec.Metrics{"time": base["time"] * 50, "quality": 0.8}})
	after, _ := s.Predict(cfg, res)
	if math.Abs(after["time"]-settled["time"]) > 1e-9 {
		t.Fatalf("outlier moved the model: %v -> %v", settled["time"], after["time"])
	}
	if got := s.mOutlier.Value(); got != 1 {
		t.Fatalf("outlier counter = %v, want 1", got)
	}

	// Sustained drift at 2× must shift the window and be accepted within
	// roughly a window's worth of samples.
	drift := base["time"] * 2
	for i := 0; i < 40; i++ {
		s.Offer(Sample{Config: cfg, Resources: res, Observed: spec.Metrics{"time": drift, "quality": 0.8}})
	}
	final, _ := s.Predict(cfg, res)
	if math.Abs(final["time"]-drift) > 0.1*drift {
		t.Fatalf("sustained drift not absorbed: predict %v, observed %v", final["time"], drift)
	}
}

func TestInvalidSamplesCounted(t *testing.T) {
	app := testApp(t)
	reg := metrics.New()
	s := newTestStore(t, testPrior(t, app), nil, Options{BatchSize: 1})
	s.EnableMetrics(reg)

	s.Offer(Sample{Config: spec.Config{"codec": spec.Enum("nope")},
		Resources: resource.Vector{resource.Bandwidth: 1e5}, Observed: spec.Metrics{"time": 1}})
	s.Offer(Sample{Config: cfgOf("lzw", 1),
		Resources: resource.Vector{resource.Bandwidth: 1e5}, Observed: spec.Metrics{"bogus": 1}})
	s.Offer(Sample{Config: cfgOf("lzw", 1),
		Resources: resource.Vector{resource.Bandwidth: 1e5}, Observed: spec.Metrics{"time": math.NaN()}})
	if got := s.mInvalid.Value(); got != 3 {
		t.Fatalf("invalid counter = %v, want 3", got)
	}
}

func TestBatchingDefersFold(t *testing.T) {
	app := testApp(t)
	s := newTestStore(t, testPrior(t, app), nil, Options{BatchSize: 8})
	cfg := cfgOf("bzw", 1)
	res := resource.Vector{resource.Bandwidth: 100e3}
	before, _ := s.Predict(cfg, res)
	for i := 0; i < 3; i++ {
		s.Offer(Sample{Config: cfg, Resources: res, Observed: spec.Metrics{"time": before["time"] * 1.5, "quality": 0.9}})
	}
	mid, _ := s.Predict(cfg, res)
	if mid["time"] != before["time"] {
		t.Fatalf("fold happened before batch filled: %v -> %v", before["time"], mid["time"])
	}
	if n := s.Flush(); n != 3 {
		t.Fatalf("Flush accepted %d, want 3", n)
	}
	after, _ := s.Predict(cfg, res)
	if after["time"] == before["time"] {
		t.Fatal("flush did not fold queued samples")
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	app := testApp(t)
	reg := metrics.New()
	s := newTestStore(t, testPrior(t, app), nil, Options{})
	s.EnableMetrics(reg)

	cfg := cfgOf("lzw", 1)
	res := resource.Vector{resource.Bandwidth: 100e3}
	for i := 0; i < 5; i++ {
		if _, err := s.Predict(cfg, res); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.cache.misses.Value(); got != 1 {
		t.Fatalf("misses = %v, want 1", got)
	}
	if got := s.cache.hits.Value(); got != 4 {
		t.Fatalf("hits = %v, want 4", got)
	}
	s.InvalidateCache(cfg)
	if _, err := s.Predict(cfg, res); err != nil {
		t.Fatal(err)
	}
	if got := s.cache.misses.Value(); got != 2 {
		t.Fatalf("misses after invalidate = %v, want 2", got)
	}
}

func TestCacheEvictionReloadsFromStore(t *testing.T) {
	app := testApp(t)
	// Cache of 1 entry: alternating configs evict each other every lookup.
	s := newTestStore(t, testPrior(t, app), nil, Options{BatchSize: 1, CacheEntries: 1})
	a, b := cfgOf("lzw", 1), cfgOf("bzw", 1)
	res := resource.Vector{resource.Bandwidth: 100e3}

	s.Offer(Sample{Config: a, Resources: res, Observed: spec.Metrics{"time": 123, "quality": 0.8}})
	for i := 0; i < 4; i++ {
		if _, err := s.Predict(b, res); err != nil {
			t.Fatal(err)
		}
		got, err := s.Predict(a, res)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got["time"]-123) > 30 {
			t.Fatalf("reloaded entry lost refinement: %v", got["time"])
		}
	}
	if entries, _ := s.CacheStats(); entries != 1 {
		t.Fatalf("cache holds %d entries, bound is 1", entries)
	}
}

func TestMergeSweep(t *testing.T) {
	app := testApp(t)
	backend := NewMemStore()
	s := newTestStore(t, testPrior(t, app), backend, Options{BatchSize: 1})

	// Live refinement learns one point.
	cfg := cfgOf("lzw", 1)
	low := resource.Vector{resource.Bandwidth: 10e3}
	for i := 0; i < 10; i++ {
		s.Offer(Sample{Config: cfg, Resources: low, Observed: spec.Metrics{"time": 500, "quality": 0.8}})
	}

	// A fresh sweep re-profiles the same point (averaged over 3 runs,
	// disagreeing with live) and adds a new one.
	sweep := perfdb.New(app)
	for i := 0; i < 3; i++ {
		if err := sweep.Add(cfg, low, spec.Metrics{"time": 440, "quality": 0.8}); err != nil {
			t.Fatal(err)
		}
	}
	novel := resource.Vector{resource.Bandwidth: 400e3}
	if err := sweep.Add(cfg, novel, spec.Metrics{"time": 12, "quality": 0.8}); err != nil {
		t.Fatal(err)
	}

	st, err := MergeSweep(backend, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if st.Configs != 1 || st.Merged != 1 || st.Added != 1 {
		t.Fatalf("merge stats = %+v, want 1 config, 1 merged, 1 added", st)
	}

	p, err := backend.Load(cfg.Key())
	if err != nil {
		t.Fatal(err)
	}
	i := p.find(low.Key())
	if i < 0 {
		t.Fatal("merged record missing")
	}
	got := p.Records[i].Metrics["time"]
	if got <= 440 || got >= 500 {
		t.Fatalf("merged estimate %v not between sweep 440 and live 500", got)
	}
	// The merge must be visible through a fresh store over the same
	// backend (cache in s may be stale; that is fine — s did not merge).
	s2 := newTestStore(t, testPrior(t, app), backend, Options{})
	pred, err := s2.Predict(cfg, novel)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred["time"]-12) > 1 {
		t.Fatalf("novel sweep point not served: %v", pred["time"])
	}
}

func TestSampleWireRoundTrip(t *testing.T) {
	app := testApp(t)
	s := Sample{
		Config:    cfgOf("bzw", 2),
		Resources: resource.Vector{resource.Bandwidth: 125e3, resource.CPU: 0.5},
		Observed:  spec.Metrics{"time": 41.5, "quality": 0.875},
		At:        1234567,
		Source:    "monitor",
	}
	back, err := FromWire(app, s.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Config.Equal(s.Config) || back.At != s.At || back.Source != s.Source {
		t.Fatalf("wire round trip mangled sample: %+v", back)
	}
	if back.Observed["time"] != 41.5 || back.Resources[resource.CPU] != 0.5 {
		t.Fatalf("wire round trip mangled values: %+v", back)
	}
	if _, err := FromWire(app, WireSample{Config: "codec=zzz", Metrics: map[string]float64{"time": 1}}); err == nil {
		t.Fatal("bad wire config key accepted")
	}
}

func TestConfigsUnion(t *testing.T) {
	app := testApp(t)
	prior := perfdb.New(app)
	if err := prior.Add(cfgOf("lzw", 1), resource.Vector{resource.Bandwidth: 1e5}, spec.Metrics{"time": 1}); err != nil {
		t.Fatal(err)
	}
	s := newTestStore(t, prior, nil, Options{BatchSize: 1})
	s.Offer(Sample{Config: cfgOf("bzw", 2), Resources: resource.Vector{resource.Bandwidth: 1e5},
		Observed: spec.Metrics{"time": 2}})
	configs := s.Configs()
	if len(configs) != 2 {
		t.Fatalf("Configs union has %d entries, want 2: %v", len(configs), configs)
	}
}

func TestSnapshotByteStable(t *testing.T) {
	app := testApp(t)
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestStore(t, testPrior(t, app), w, Options{BatchSize: 1})
	res := resource.Vector{resource.Bandwidth: 60e3}
	for i := 0; i < 6; i++ {
		s.Offer(Sample{Config: cfgOf("lzw", 1), Resources: res, Observed: spec.Metrics{"time": 80, "quality": 0.8}})
		s.Offer(Sample{Config: cfgOf("bzw", 2), Resources: res, Observed: spec.Metrics{"time": 42, "quality": 0.9}})
	}
	var before bytes.Buffer
	if err := w.Snapshot(&before); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var after bytes.Buffer
	if err := w2.Snapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("snapshot not byte-stable across reopen:\n%s\nvs\n%s", before.Bytes(), after.Bytes())
	}
}

// TestWarmPredictAllocations gates the hot read path: a prediction from a
// warm cache entry allocates the configuration key its cache lookup needs
// and the result map — not a second key, a grid or a vector per corner.
func TestWarmPredictAllocations(t *testing.T) {
	app := testApp(t)
	s := newTestStore(t, testPrior(t, app), nil, Options{BatchSize: 1})
	cfg := cfgOf("lzw", 1)
	s.Offer(Sample{Config: cfg, Resources: resource.Vector{resource.Bandwidth: 100e3},
		Observed: spec.Metrics{"time": 60, "quality": 0.8}})
	var sink spec.Metrics
	mapOnly := testing.AllocsPerRun(200, func() {
		m := make(spec.Metrics, 2)
		m["time"], m["quality"] = 1, 2
		sink = m
	})
	for name, res := range map[string]resource.Vector{
		"inside":     {resource.Bandwidth: 120e3},
		"on-lattice": {resource.Bandwidth: 100e3},
		"fallback":   {resource.CPU: 0.5},
	} {
		if n := testing.AllocsPerRun(200, func() {
			m, err := s.Predict(cfg, res)
			if err != nil {
				t.Fatal(err)
			}
			sink = m
		}); n > mapOnly+1 {
			t.Errorf("%s: warm Predict allocates %v times, want at most the key and the result map (%v)", name, n, mapOnly+1)
		}
	}
	_ = sink
}
