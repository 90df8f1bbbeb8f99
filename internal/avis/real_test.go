package avis

import (
	"errors"
	"net"
	"testing"
	"time"

	"tunable/internal/metrics"
	"tunable/internal/wavelet"
)

// startRealServer launches a real server on a loopback listener.
func startRealServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	srv, err := NewRealServer(256, 4, []int64{1, 2}, testStore)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	return l.Addr().String(), func() { l.Close() }
}

func dialReal(t *testing.T, addr string, p Params) *RealClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRealClient(conn, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRealTCPFetch(t *testing.T) {
	addr, stop := startRealServer(t)
	defer stop()
	c := dialReal(t, addr, Params{DR: 64, Codec: "lzw", Level: 4})
	defer c.Close()
	if c.Geometry().Side != 256 || c.Geometry().NumImages != 2 {
		t.Fatalf("geometry %+v", c.Geometry())
	}
	st, err := c.FetchImage(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 4 {
		t.Fatalf("rounds %d", st.Rounds)
	}
	if st.RawBytes < 256*256 {
		t.Fatalf("raw bytes %d", st.RawBytes)
	}
	if st.WireBytes >= st.RawBytes {
		t.Fatalf("compression ineffective: wire %d raw %d", st.WireBytes, st.RawBytes)
	}
	if len(c.Stats()) != 1 {
		t.Fatal("stats not recorded")
	}
}

func TestRealTCPReconstruction(t *testing.T) {
	addr, stop := startRealServer(t)
	defer stop()
	c := dialReal(t, addr, Params{DR: 64, Codec: "bzw", Level: 4})
	defer c.Close()
	canvas, err := wavelet.NewCanvas(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchImage(1, canvas); err != nil {
		t.Fatal(err)
	}
	recon, err := canvas.Reconstruct(4)
	if err != nil {
		t.Fatal(err)
	}
	ref := testStore.Image(256, 2)
	psnr, err := refPSNR(ref, recon)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 30 {
		t.Fatalf("PSNR over real TCP %.1f dB", psnr)
	}
}

func TestRealTCPCodecSwitch(t *testing.T) {
	addr, stop := startRealServer(t)
	defer stop()
	c := dialReal(t, addr, Params{DR: 128, Codec: "lzw", Level: 3})
	defer c.Close()
	st1, err := c.FetchImage(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetParams(Params{DR: 128, Codec: "bzw", Level: 3}); err != nil {
		t.Fatal(err)
	}
	st2, err := c.FetchImage(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st1.RawBytes != st2.RawBytes {
		t.Fatalf("raw bytes differ: %d vs %d", st1.RawBytes, st2.RawBytes)
	}
	if st2.WireBytes >= st1.WireBytes {
		t.Fatalf("bzw (%d) not smaller than lzw (%d) on the wire", st2.WireBytes, st1.WireBytes)
	}
}

func TestRealTCPErrors(t *testing.T) {
	addr, stop := startRealServer(t)
	defer stop()
	c := dialReal(t, addr, Params{DR: 64, Codec: "lzw", Level: 4})
	defer c.Close()
	if _, err := c.FetchImage(99, nil); err == nil {
		t.Fatal("out-of-range image succeeded")
	}
	if err := c.SetCodec("zip9000"); err == nil {
		t.Fatal("unknown codec accepted locally")
	}
	// A fresh client that never connected cannot fetch.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c2, err := NewRealClient(conn, Params{DR: 64, Codec: "lzw", Level: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.FetchImage(0, nil); err == nil {
		t.Fatal("fetch before connect succeeded")
	}
}

func TestRealTCPShapedLink(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time shaping test")
	}
	addr, stop := startRealServer(t)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Shaping the client's uplink affects only requests (tiny); this test
	// just exercises the Shape path end to end.
	c, err := NewRealClient(Shape(conn, 1<<20), Params{DR: 128, Codec: "lzw", Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchImage(0, nil); err != nil {
		t.Fatal(err)
	}
	if Shape(nil, 0) != nil {
		t.Fatal("Shape(0) must pass through")
	}
}

// TestRealTCPIOTimeout connects to a listener that accepts and then never
// speaks: the handshake read must fail with the typed timeout error rather
// than hang.
func TestRealTCPIOTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept, then say nothing
		}
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRealClient(conn, Params{DR: 64, Codec: "lzw", Level: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIOTimeout(100 * time.Millisecond)

	start := time.Now()
	err = c.Connect()
	if err == nil {
		t.Fatal("Connect against a mute peer succeeded")
	}
	if !errors.Is(err, ErrIOTimeout) {
		t.Fatalf("error %v does not match ErrIOTimeout", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error %v is not a *TimeoutError", err)
	}
	if !te.Timeout() {
		t.Fatal("TimeoutError.Timeout() must report true")
	}
	if te.After != 100*time.Millisecond {
		t.Fatalf("TimeoutError.After = %v, want 100ms", te.After)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, deadline not armed", elapsed)
	}
}

// TestRealTCPTimeoutAllowsProgress sets a short per-operation timeout and
// verifies a full multi-round fetch still succeeds: the deadline is a
// progress watchdog, re-armed on every read/write, not a whole-transfer cap.
func TestRealTCPTimeoutAllowsProgress(t *testing.T) {
	addr, stop := startRealServer(t)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRealClient(conn, Params{DR: 64, Codec: "lzw", Level: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIOTimeout(2 * time.Second)
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchImage(0, nil); err != nil {
		t.Fatalf("fetch with progress deadline: %v", err)
	}
}

// TestRealTCPMetrics runs an instrumented server/client pair through a
// fetch and checks the avis_* families fill in on both sides.
func TestRealTCPMetrics(t *testing.T) {
	srv, err := NewRealServer(256, 4, []int64{1}, testStore)
	if err != nil {
		t.Fatal(err)
	}
	sreg := metrics.New()
	srv.EnableMetrics(sreg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRealClient(conn, Params{DR: 64, Codec: "lzw", Level: 4})
	if err != nil {
		t.Fatal(err)
	}
	creg := metrics.New()
	c.EnableMetrics(creg)
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := c.FetchImage(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	if got := creg.Counter("avis_images_total", "").Value(); got != 1 {
		t.Errorf("client avis_images_total = %g, want 1", got)
	}
	if got := creg.Counter("avis_rounds_total", "").Value(); got != float64(st.Rounds) {
		t.Errorf("client avis_rounds_total = %g, want %d", got, st.Rounds)
	}
	if got := creg.Counter("avis_wire_bytes_total", "").Value(); got != float64(st.WireBytes) {
		t.Errorf("client avis_wire_bytes_total = %g, want %d", got, st.WireBytes)
	}
	if got := creg.Histogram("avis_fetch_seconds", "").Count(); got != 1 {
		t.Errorf("client avis_fetch_seconds count = %d, want 1", got)
	}
	if got := sreg.Counter("avis_connections_total", "").Value(); got != 1 {
		t.Errorf("server avis_connections_total = %g, want 1", got)
	}
	if got := sreg.Counter("avis_requests_total", "").Value(); got < float64(st.Rounds) {
		t.Errorf("server avis_requests_total = %g, want ≥ %d", got, st.Rounds)
	}
	if got := sreg.Histogram("avis_request_seconds", "").Count(); got == 0 {
		t.Error("server avis_request_seconds histogram empty")
	}
	// Every request is a hit or a miss of the encoded-reply cache, the
	// codec timer runs for the misses only, and the occupancy gauge is the
	// store's own figure.
	hits := sreg.Counter("avis_encoded_cache_hits_total", "").Value()
	misses := sreg.Counter("avis_encoded_cache_misses_total", "").Value()
	stats := srv.Stats()
	if hits+misses != float64(stats.Requests) || hits != float64(stats.EncodedCacheHits) || misses != float64(stats.EncodeCalls) {
		t.Errorf("encoded cache: %g hits + %g misses, server stats %+v", hits, misses, stats)
	}
	if got := sreg.Histogram("avis_codec_encode_seconds", "", metrics.L("codec", "lzw")).Count(); float64(got) != misses {
		t.Errorf("avis_codec_encode_seconds observed %d times for %g encodes", got, misses)
	}
	if got, want := sreg.Gauge("avis_encoded_cache_bytes", "").Value(), float64(testStore.EncodedStats().Bytes); got != want || want == 0 {
		t.Errorf("avis_encoded_cache_bytes = %g, store holds %g", got, want)
	}
}
