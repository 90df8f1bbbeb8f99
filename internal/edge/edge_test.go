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
	"tunable/internal/compress"
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
		cfg.originRetries = 5
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
		put(c, cacheKey("k", avis.Request{Image: i}, "raw"), cacheEntry{enc: make([]byte, 100), rawLen: 100})
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

// put fills key with e.
func put(c *chunkCache, key chunkKey, e cacheEntry) {
	_, _ = c.fill(key, func() (cacheEntry, error) { return e, nil })
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

// TestEdgeMissAfterFillReusesIt: a caller whose lookup missed just before
// another caller's fill of the same chunk completed must be answered by
// that fill — the cache and its flights are one decision, so the late
// fetch reaches the origin no more times.
func TestEdgeMissAfterFillReusesIt(t *testing.T) {
	origin, originLn := startOrigin(t)
	p, _ := startEdge(t, originLn.Addr().String(), nil, nil)
	codec, err := compress.Lookup("raw")
	if err != nil {
		t.Fatal(err)
	}
	req := avis.PlanRounds(p.Geometry(), avis.Params{DR: 32, Level: testLevels - 1}, 0, 0)[0]
	key := cacheKey(testSig, req, codec.Name())
	base := origin.Stats().Requests

	if _, hit := p.cache.lookup(key); hit { // the first caller misses ...
		t.Fatal("a cold cache hit")
	}
	want, err := p.fetchShared(key, codec) // ... a second one's fill completes ...
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.fetchShared(key, codec) // ... and the first one fetches
	if err != nil {
		t.Fatal(err)
	}
	if n := origin.Stats().Requests - base; n != 1 {
		t.Fatalf("origin served %d rounds for one chunk, want 1", n)
	}
	if !bytes.Equal(got.enc, want.enc) || got.rawLen != want.rawLen {
		t.Fatal("the late fetch got other bytes than the fill")
	}
}
