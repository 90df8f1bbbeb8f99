package edge

import (
	"bytes"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tunable/internal/avis"
	"tunable/internal/faults"
	"tunable/internal/metrics"
	"tunable/internal/wavelet"
)

const (
	testSide   = 128
	testLevels = 3
	testSig    = "test-store-sig"
)

var testSeeds = []int64{1, 2}

// startOrigin runs a real avis server on a loopback listener.
func startOrigin(t *testing.T) (*avis.RealServer, net.Listener) {
	t.Helper()
	srv, err := avis.NewRealServer(testSide, testLevels, testSeeds, avis.SharedStore())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Shutdown(0) })
	return srv, ln
}

// startEdge runs an edge proxy fronting originAddr. mod, when non-nil,
// adjusts the config before New; reg, when non-nil, instruments the proxy
// (before Serve — instrument binding is not synchronized with handlers).
func startEdge(t *testing.T, originAddr string, reg *metrics.Registry, mod func(*Config)) (*Proxy, net.Listener) {
	t.Helper()
	cfg := Config{OriginAddr: originAddr, Sig: testSig, IOTimeout: 5 * time.Second}
	if mod != nil {
		mod(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reg != nil {
		p.EnableMetrics(reg)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve(ln) }()
	t.Cleanup(func() { p.Shutdown(time.Second) })
	return p, ln
}

// dialClient connects an avis client, optionally through a shaped link.
func dialClient(t *testing.T, addr string, params avis.Params, bw float64) *avis.RealClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := avis.NewRealClient(avis.Shape(conn, bw), params)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	c.SetIOTimeout(5 * time.Second)
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// fetchPix downloads one image and returns the reconstructed pixels.
func fetchPix(t *testing.T, c *avis.RealClient, img, level int) []float64 {
	t.Helper()
	canvas, err := wavelet.NewCanvas(testSide, testLevels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchImage(img, canvas); err != nil {
		t.Fatal(err)
	}
	im, err := canvas.Reconstruct(level)
	if err != nil {
		t.Fatal(err)
	}
	return im.Pix
}

// TestEdgeByteIdentical is the end-to-end acceptance path: images fetched
// through the edge over a shaped (netem) link must be byte-identical to
// direct origin fetches, at a coarse level (served via the cache) and at
// the finest level (streamed through uncached); repeated coarse fetches
// must hit the cache, and the hit counter must reach /metrics exposition.
func TestEdgeByteIdentical(t *testing.T) {
	_, originLn := startOrigin(t)
	reg := metrics.New()
	p, edgeLn := startEdge(t, originLn.Addr().String(), reg, func(cfg *Config) {
		cfg.SegBytes = 4 << 10 // segment differently from the origin on purpose
	})

	const bw = 400_000 // ~constrained-link emulation on both legs
	for _, tc := range []struct {
		name  string
		level int
		codec string
	}{
		{"coarse-lzw", testLevels - 1, "lzw"},
		{"fine-raw", testLevels, "raw"},
		{"coarse-bzw", 1, "bzw"},
	} {
		params := avis.Params{DR: 32, Codec: tc.codec, Level: tc.level}
		direct := fetchPix(t, dialClient(t, originLn.Addr().String(), params, bw), 0, tc.level)
		viaEdge := fetchPix(t, dialClient(t, edgeLn.Addr().String(), params, bw), 0, tc.level)
		if !reflect.DeepEqual(direct, viaEdge) {
			t.Fatalf("%s: edge-delivered image differs from direct fetch", tc.name)
		}
	}

	// Cache keys include the codec: the repeat of the first coarse fetch,
	// same level and same codec, must be served from cache.
	before := p.Stats()
	params := avis.Params{DR: 32, Codec: "lzw", Level: testLevels - 1}
	_ = fetchPix(t, dialClient(t, edgeLn.Addr().String(), params, bw), 0, testLevels-1)
	after := p.Stats()
	if after.Hits <= before.Hits {
		t.Fatalf("repeated coarse fetch did not hit the cache: %+v -> %+v", before, after)
	}
	if after.Misses == 0 {
		t.Fatal("cold fetches never counted as misses")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !counterNonzero(buf.String(), "edge_cache_hits_total") {
		t.Fatalf("edge_cache_hits_total not exposed nonzero:\n%s", buf.String())
	}
}

// wireTap is a net.Conn that keeps everything read from it: the frames a
// server sent, as sent.
type wireTap struct {
	net.Conn
	got bytes.Buffer
}

func (w *wireTap) Read(p []byte) (int, error) {
	n, err := w.Conn.Read(p)
	w.got.Write(p[:n])
	return n, err
}

// roundWire performs req on a fresh session at addr under codec and returns
// the reply as it crossed the wire — every segment frame, headers and
// compressed payload — and the decoded chunk bytes.
func roundWire(t *testing.T, addr, codec string, req avis.Request) (wireBytes, data []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tap := &wireTap{Conn: conn}
	c, err := avis.NewRealClient(tap, avis.Params{DR: 32, Codec: codec, Level: req.Level})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIOTimeout(5 * time.Second)
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	tap.got.Reset() // drop the handshake and geometry
	data, _, err = c.FetchRoundRaw(req)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), tap.got.Bytes()...), data
}

// TestEdgeCachePerCodec: the cache holds replies in the form they leave
// in, so clients that announced different codecs each get an entry of
// their own — and each receives, frame for frame, exactly what the origin
// answers a client of that codec directly, on the miss and on the hit.
// Hits and misses are counted as ever: one lookup per coarse request.
func TestEdgeCachePerCodec(t *testing.T) {
	_, originLn := startOrigin(t)
	p, edgeLn := startEdge(t, originLn.Addr().String(), nil, nil)
	req := avis.PlanRounds(p.Geometry(), avis.Params{DR: 32, Level: testLevels - 1}, 0, 0)[0]

	var decoded [][]byte
	for i, codec := range []string{"lzw", "raw", "bzw"} {
		direct, want := roundWire(t, originLn.Addr().String(), codec, req)
		miss, d1 := roundWire(t, edgeLn.Addr().String(), codec, req)
		hit, d2 := roundWire(t, edgeLn.Addr().String(), codec, req)
		if !bytes.Equal(miss, direct) || !bytes.Equal(hit, direct) {
			t.Errorf("%s: edge reply differs on the wire from the origin's (direct %d B, miss %d B, hit %d B)",
				codec, len(direct), len(miss), len(hit))
		}
		if !bytes.Equal(d1, want) || !bytes.Equal(d2, want) {
			t.Errorf("%s: decoded chunk differs from the origin's", codec)
		}
		decoded = append(decoded, want)
		if st := p.Stats(); st.Misses != int64(i+1) || st.Hits != int64(i+1) || st.Entries != i+1 {
			t.Errorf("after %s: %+v, want %d misses, hits and entries", codec, st, i+1)
		}
	}
	if !bytes.Equal(decoded[0], decoded[1]) || !bytes.Equal(decoded[0], decoded[2]) {
		t.Error("the chunk itself differs across codecs")
	}
}

// TestEdgeSingleFlight hammers one cold chunk from many concurrent
// clients: the origin must see the fetch once, everyone must get the
// bytes.
func TestEdgeSingleFlight(t *testing.T) {
	origin, originLn := startOrigin(t)
	p, edgeLn := startEdge(t, originLn.Addr().String(), nil, nil)

	geom := p.Geometry()
	req := avis.PlanRounds(geom, avis.Params{DR: 32, Level: testLevels - 1}, 0, 0)[0]

	const workers = 8
	clients := make([]*avis.RealClient, workers)
	for i := range clients {
		clients[i] = dialClient(t, edgeLn.Addr().String(), avis.Params{DR: 32, Codec: "raw", Level: testLevels - 1}, 0)
	}
	base := origin.Stats().Requests

	var wg sync.WaitGroup
	payloads := make([][]byte, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payloads[i], _, errs[i] = clients[i].FetchRoundRaw(req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if !bytes.Equal(payloads[i], payloads[0]) {
			t.Fatalf("client %d received different bytes", i)
		}
	}
	if got := origin.Stats().Requests - base; got != 1 {
		t.Fatalf("origin served %d rounds for one chunk, want 1 (single-flight)", got)
	}
}

// traceFixations renders a linear fovea pan: n fixations stepping (dx,dy)
// from (x0,y0).
func traceFixations(x0, y0, dx, dy, n int) [][2]int {
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{x0 + i*dx, y0 + i*dy}
	}
	return out
}

// replayTrace replays the fovea trace through one client connection: at
// every fixation the same round shapes (the coarse request plan) are
// issued at that fixation's center. When warm is non-nil, it is polled
// between fixations until the next fixation's chunks appear in the cache
// (bounded), modelling a viewer whose dwell time the prewarmer can use.
func replayTrace(t *testing.T, c *avis.RealClient, shapes []avis.Request, fix [][2]int, warm func(next []avis.Request) bool) {
	t.Helper()
	at := func(f [2]int) []avis.Request {
		reqs := make([]avis.Request, len(shapes))
		for i, s := range shapes {
			s.X, s.Y = f[0], f[1]
			reqs[i] = s
		}
		return reqs
	}
	for i, f := range fix {
		for _, req := range at(f) {
			if _, _, err := c.FetchRoundRaw(req); err != nil {
				t.Fatalf("fixation %d: %v", i, err)
			}
		}
		if warm != nil && i+1 < len(fix) {
			next := at(fix[i+1])
			deadline := time.Now().Add(2 * time.Second)
			for !warm(next) && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
}

// runTrace runs the fovea-trace experiment against a fresh origin+edge
// pair and returns the edge's cache stats.
func runTrace(t *testing.T, prewarm bool) CacheStats {
	t.Helper()
	_, originLn := startOrigin(t)
	p, edgeLn := startEdge(t, originLn.Addr().String(), nil, func(cfg *Config) {
		cfg.Prewarm = prewarm
	})
	geom := p.Geometry()
	shapes := avis.PlanRounds(geom, avis.Params{DR: 16, Level: testLevels - 1}, 0, 0)
	if len(shapes) < 2 {
		t.Fatalf("trace needs several rounds per fixation, got %d", len(shapes))
	}
	c := dialClient(t, edgeLn.Addr().String(), avis.Params{DR: 16, Codec: "lzw", Level: testLevels - 1}, 0)

	fix := traceFixations(testSide/4, testSide/2, 4, 0, 10)
	var warm func([]avis.Request) bool
	if prewarm {
		warm = func(next []avis.Request) bool {
			for _, req := range next {
				if !p.cache.contains(cacheKey(testSig, req, "lzw")) {
					return false
				}
			}
			return true
		}
	}
	replayTrace(t, c, shapes, fix, warm)
	return p.Stats()
}

// TestEdgePrewarmTraceHitRatio is the replayed fovea-trace experiment of
// the acceptance criteria: with trajectory prewarming the coarse-level
// hit ratio must reach at least 50%, and it must measurably beat the same
// trace without prewarming (which, on a pure pan with no revisits, cannot
// hit at all).
func TestEdgePrewarmTraceHitRatio(t *testing.T) {
	cold := runTrace(t, false)
	warm := runTrace(t, true)
	t.Logf("trace without prewarm: %+v (ratio %.2f)", cold, cold.HitRatio())
	t.Logf("trace with    prewarm: %+v (ratio %.2f)", warm, warm.HitRatio())
	if warm.HitRatio() < 0.5 {
		t.Fatalf("prewarmed hit ratio %.2f below 0.5 (%+v)", warm.HitRatio(), warm)
	}
	if warm.HitRatio() <= cold.HitRatio() {
		t.Fatalf("prewarming did not improve the hit ratio: %.2f vs %.2f", warm.HitRatio(), cold.HitRatio())
	}
	if warm.PrewarmHits == 0 {
		t.Fatalf("no hits attributed to prewarmed entries: %+v", warm)
	}
}

// TestEdgeTrajectoryTeleportNoGarbagePrewarm drives a fovea teleport
// through the proxy: the jump must not enqueue a prewarm fetch
// extrapolated between the two fixations (the trajectory window resets).
func TestEdgeTrajectoryTeleportNoGarbagePrewarm(t *testing.T) {
	origin, originLn := startOrigin(t)
	p, edgeLn := startEdge(t, originLn.Addr().String(), nil, func(cfg *Config) {
		cfg.Prewarm = true
		cfg.TeleportDist = 16
	})
	geom := p.Geometry()
	shapes := avis.PlanRounds(geom, avis.Params{DR: 32, Level: testLevels - 1}, 0, 0)[:1]
	c := dialClient(t, edgeLn.Addr().String(), avis.Params{DR: 32, Codec: "raw", Level: testLevels - 1}, 0)

	// Two nearby fixations arm the predictor, then a teleport far away.
	replayTrace(t, c, shapes, [][2]int{{32, 64}, {36, 64}, {100, 100}}, nil)
	// Give any (wrong) speculative fetch time to land, then compare the
	// origin's request count against exactly the client-issued rounds plus
	// the one legitimate prewarm (predicted {40,64} after the second
	// fixation). A prediction extrapolated across the teleport would add
	// another.
	time.Sleep(150 * time.Millisecond)
	reqs := origin.Stats().Requests
	if reqs > 4 {
		t.Fatalf("origin saw %d rounds; teleport leaked speculative fetches", reqs)
	}
}

// edgeChaosSchedule scripts the origin-leg faults: a connection reset
// mid-stream, then a loss window. Pure function of the seed.
func edgeChaosSchedule(seed uint64) faults.Schedule {
	return faults.NewSchedule(seed,
		faults.Event{At: 50 * time.Millisecond, Kind: faults.Reset, Target: "origin"},
		faults.Event{At: 120 * time.Millisecond, Duration: 250 * time.Millisecond,
			Kind: faults.Drop, Target: "origin", Rate: 0.10},
	)
}

// TestEdgeChaosByteIdentical pushes a seeded fault schedule through the
// edge's origin leg while a client streams an image: the edge must absorb
// the resets and loss with its retry/redial loop and still deliver output
// byte-identical to a fault-free reference.
func TestEdgeChaosByteIdentical(t *testing.T) {
	const seed = 20260807
	if !reflect.DeepEqual(edgeChaosSchedule(seed), edgeChaosSchedule(seed)) {
		t.Fatal("chaos schedule is not reproducible from its seed")
	}

	_, originLn := startOrigin(t)
	injector, err := faults.New(edgeChaosSchedule(seed))
	if err != nil {
		t.Fatal(err)
	}
	originAddr := originLn.Addr().String()
	reg := metrics.New()
	p, edgeLn := startEdge(t, originAddr, reg, func(cfg *Config) {
		cfg.OriginDial = func() (net.Conn, error) {
			return injector.Dial("origin", "tcp", originAddr, 2*time.Second)
		}
		cfg.OriginAddr = ""
		cfg.IOTimeout = 500 * time.Millisecond
		cfg.OriginRetries = 5
	})

	params := avis.Params{DR: 16, Codec: "lzw", Level: testLevels - 1}
	reqs := avis.PlanRounds(p.Geometry(), params, 1, 0)
	if len(reqs) < 4 {
		t.Fatalf("chaos trace needs ≥4 rounds to straddle the schedule, got %d", len(reqs))
	}
	ref := make([][]byte, len(reqs))
	direct := dialClient(t, originLn.Addr().String(), params, 0)
	for i, req := range reqs {
		data, _, err := direct.FetchRoundRaw(req)
		if err != nil {
			t.Fatalf("reference round %d: %v", i, err)
		}
		ref[i] = append([]byte(nil), data...)
	}

	// Pace the edge-side replay across the schedule: round 1 lands after
	// the 50 ms reset instant (killing the pooled origin conn mid-use) and
	// rounds 2-3 land inside the loss window.
	c := dialClient(t, edgeLn.Addr().String(), params, 0)
	injector.Start()
	for i, req := range reqs {
		if i > 0 {
			time.Sleep(90 * time.Millisecond)
		}
		data, _, err := c.FetchRoundRaw(req)
		if err != nil {
			t.Fatalf("chaos round %d: %v (faults: %v)", i, err, injector.Log())
		}
		if !bytes.Equal(data, ref[i]) {
			t.Fatalf("round %d bytes differ under faults (faults: %v)", i, injector.Log())
		}
	}
	if len(injector.Log()) == 0 {
		t.Fatal("no faults injected")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !counterNonzero(buf.String(), "edge_origin_retries_total") {
		t.Fatalf("origin leg never retried under the scripted faults:\n%s\nfaults: %v",
			buf.String(), injector.Log())
	}
}

// TestEdgeCacheEvictionBounds fills the cache past both its bounds and
// checks occupancy and eviction accounting.
func TestEdgeCacheEvictionBounds(t *testing.T) {
	c := newChunkCache(4, 1<<20, time.Minute)
	for i := 0; i < 10; i++ {
		c.insert(cacheKey("k", avis.Request{Image: i}, "raw"), cacheEntry{enc: make([]byte, 100), rawLen: 100})
	}
	st := c.stats()
	if st.Entries > 4 {
		t.Fatalf("cache holds %d entries, bound is 4", st.Entries)
	}
	if st.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", st.Evictions)
	}
	if _, ok := c.lookup(cacheKey("k", avis.Request{Image: 9}, "raw")); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := c.lookup(cacheKey("k", avis.Request{Image: 0}, "raw")); ok {
		t.Fatal("oldest entry survived past the bound")
	}
}

// counterNonzero reports whether any sample of the named metric family in
// a Prometheus exposition has a value greater than zero.
func counterNonzero(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] != "0" {
			return true
		}
	}
	return false
}
