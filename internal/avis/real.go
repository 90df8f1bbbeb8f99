package avis

import (
	"fmt"
	"net"
	"time"

	"tunable/internal/compress"
	"tunable/internal/metrics"
	"tunable/internal/wavelet"
	"tunable/internal/wire"
)

// Real-network deployment mode: the same session core as the simulated
// experiments (session.go, serve.go), bound to a TCP connection instead
// of the testbed — wall-clock timing, and compute costs that are the real
// costs of the real work, so no sandbox metering applies. Optional
// token-bucket shaping (package netem) stands in for constrained links.
// Used by cmd/avis-server, cmd/avis-client, the edge proxy's origin leg
// and the cluster's failover client.

// RealServer serves the visualization protocol over net.Conn connections.
type RealServer struct {
	pyr       pyramids
	ioTimeout time.Duration
	accept    wire.Acceptor

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mConns      *metrics.Counter
	mIOTimeouts *metrics.Counter
	onSegment   func(wireBytes int)
	wInst       wire.Instruments
}

// SetIOTimeout bounds how long a frame read or write on a connection may
// go without progress before the connection is dropped with a
// *TimeoutError (0, the default, waits forever). Call it before Serve.
func (s *RealServer) SetIOTimeout(d time.Duration) { s.ioTimeout = d }

// EnableMetrics instruments the server. Metric families:
// avis_connections_total, avis_requests_total, avis_request_seconds
// (per-request serve latency), avis_sent_bytes_total (compressed bytes
// written), avis_segments_total, avis_codec_switches_total,
// avis_errors_total, avis_io_timeouts_total, the encoded-reply cache's
// avis_encoded_cache_hits_total, avis_encoded_cache_misses_total,
// avis_encoded_cache_bytes and avis_encoded_cache_evictions_total, and —
// labeled per codec, observed only for replies that were really encoded,
// i.e. the misses — avis_codec_encode_seconds,
// avis_codec_encode_in_bytes_total, and avis_codec_encode_out_bytes_total.
func (s *RealServer) EnableMetrics(reg *metrics.Registry) {
	tel := s.pyr.tel
	s.mConns = reg.Counter("avis_connections_total", "Client connections accepted.")
	tel.mRequests = reg.Counter("avis_requests_total", "Foveal region requests served.")
	tel.mReqSeconds = reg.Histogram("avis_request_seconds",
		"Wall-clock latency of serving one region request (cache lookup or extract and encode, write).")
	sentBytes := reg.Counter("avis_sent_bytes_total", "Compressed reply bytes written.")
	segments := reg.Counter("avis_segments_total", "Reply segments written.")
	s.onSegment = func(wireBytes int) {
		segments.Inc()
		sentBytes.Add(float64(wireBytes))
	}
	tel.mCodecSwitch = reg.Counter("avis_codec_switches_total", "Codec change notifications honored.")
	tel.mErrors = reg.Counter("avis_errors_total", "Protocol or serve errors returned to clients.")
	s.mIOTimeouts = reg.Counter("avis_io_timeouts_total", "Connections dropped on frame I/O timeout.")
	tel.mCodec = newCodecInstruments(reg, "encode")
	tel.mEncodedHits = reg.Counter("avis_encoded_cache_hits_total", "Requests answered with an already encoded reply.")
	tel.mEncodedMisses = reg.Counter("avis_encoded_cache_misses_total", "Requests whose reply had to be extracted and compressed.")
	s.pyr.store.enableMetrics(reg)
	s.wInst = wire.NewInstruments(reg)
}

// NewRealServer creates a server for the given synthetic image set.
func NewRealServer(side, levels int, seeds []int64, store *ImageStore) (*RealServer, error) {
	if side <= 0 || levels <= 0 || len(seeds) == 0 {
		return nil, fmt.Errorf("avis: invalid real-server geometry")
	}
	if store == nil {
		store = sharedStore
	}
	return &RealServer{pyr: pyramids{
		geom:  Geometry{Side: side, Levels: levels, NumImages: len(seeds)},
		seeds: seeds,
		store: store,
		tel:   &serverTelemetry{},
		env:   &tcpEnv{}, // only ever asked to compute, which TCP does not meter
	}}, nil
}

// Serve accepts connections until the listener closes, handling each in
// its own goroutine. After Shutdown it returns net.ErrClosed.
func (s *RealServer) Serve(l net.Listener) error {
	return s.accept.Serve(l, s.ioTimeout, s.wInst, func(wc *wire.Conn) {
		s.mConns.Inc()
		session := newServerSession(s.pyr.geom, &s.pyr, s.pyr.tel)
		_ = session.run(&tcpEnv{wc: wc, epoch: time.Now(), onSeg: s.onSegment, timeouts: s.mIOTimeouts})
	})
}

// ActiveSessions reports the number of client connections currently being
// served; node agents feed it into cluster heartbeats as the load signal.
func (s *RealServer) ActiveSessions() int { return s.accept.Active() }

// Stats returns a consistent snapshot of the cumulative serving counters.
// Safe to call concurrently with live sessions.
func (s *RealServer) Stats() ServerStats { return s.pyr.tel.snapshot() }

// Shutdown drains the server: it stops accepting (closing every listener
// passed to Serve), waits up to timeout for in-flight sessions to finish,
// then force-closes the stragglers. It returns the number of connections
// that had to be force-closed. Safe to call once; Serve calls unblock with
// net.ErrClosed.
func (s *RealServer) Shutdown(timeout time.Duration) int { return s.accept.Shutdown(timeout) }

// RealClient fetches images over a net.Conn using wall-clock timing: the
// session core bound to a TCP connection.
type RealClient struct {
	session
	conn  net.Conn // nil once closed
	tenv  tcpEnv
	wInst wire.Instruments
}

// NewRealClient wraps an established connection. Wrap conn in
// netem.NewShapedConn first to emulate a constrained link.
func NewRealClient(conn net.Conn, params Params) (*RealClient, error) {
	codec, err := compress.Lookup(params.Codec)
	if err != nil {
		return nil, err
	}
	c := &RealClient{conn: conn}
	c.tenv = tcpEnv{wc: wire.NewConn(conn, 0), epoch: time.Now()}
	c.session = session{env: &c.tenv, params: params, codec: codec}
	return c, nil
}

// SetIOTimeout bounds how long any frame read or write may go without
// progress before the call fails with a *TimeoutError instead of blocking
// forever on a dead peer (0, the default, waits forever).
func (c *RealClient) SetIOTimeout(d time.Duration) { c.tenv.wc.SetTimeout(d) }

// EnableMetrics instruments the client with the session's avis_* client
// families, avis_io_timeouts_total, and the wire_* families.
func (c *RealClient) EnableMetrics(reg *metrics.Registry) {
	c.session.EnableMetrics(reg)
	c.tenv.timeouts = reg.Counter("avis_io_timeouts_total", "Frame reads/writes that missed the I/O deadline.")
	c.wInst = wire.NewInstruments(reg)
	c.tenv.wc.SetInstruments(c.wInst)
}

// Connect runs the wire handshake, then the hello/geometry exchange and
// the codec announcement. A server that does not complete the handshake
// is refused: a *wire.HandshakeError, or a *TimeoutError when it says
// nothing within the I/O timeout.
func (c *RealClient) Connect() error {
	if err := c.tenv.negotiate(); err != nil {
		return err
	}
	return c.connect()
}

// Reconnect moves the session onto a replacement connection — a failover.
// The protocol state is replayed by the handshake (hello, then the codec
// announcement); the fovea state needs no re-transfer, because a failed
// round applied nothing to the canvas and is simply re-issued under the
// session's next sequence number. The replacement must serve the same
// geometry. Close the old connection first; on error the new one is
// closed too.
func (c *RealClient) Reconnect(conn net.Conn) error {
	was := c.geom
	wc := wire.NewConn(conn, c.tenv.wc.Timeout())
	wc.SetInstruments(c.wInst)
	c.conn, c.tenv.wc = conn, wc
	err := c.Connect()
	if err == nil && c.geom != was {
		err = fmt.Errorf("avis: replacement server geometry %+v differs from %+v", c.geom, was)
	}
	if err != nil {
		_ = conn.Close()
		c.conn = nil
	}
	return err
}

// SetCodec switches the compression method (the notify_server action).
func (c *RealClient) SetCodec(name string) error { return c.setCodec(name) }

// SetParams updates dR and level for subsequent fetches.
func (c *RealClient) SetParams(p Params) error { return c.setParams(p) }

// Close ends the session. Closing twice is harmless.
func (c *RealClient) Close() error {
	if c.conn == nil {
		return nil
	}
	c.close()
	err := c.conn.Close()
	c.conn = nil
	return err
}

// FetchRoundRaw performs one request/reply round and returns the decoded
// (pre-compression) chunk payload instead of applying it to a canvas —
// the shape the edge proxy's origin leg needs, where the payload is
// compressed once under a client's codec and cached in that form rather
// than rendered. req.Seq is assigned by the session. The returned buffer
// is drawn from the shared bufpool; callers that are done with it may
// return it with bufpool.Put.
// wireN is the round's on-the-wire byte count. An error other than a
// *RefusedError leaves the connection out of step with the server.
func (c *RealClient) FetchRoundRaw(req Request) (data []byte, wireN int, err error) {
	return c.fetchRoundRaw(req)
}

// FetchRound performs one request/reply round: it sends req, gathers the
// reply segments, decodes them with the current codec, and, when canvas is
// non-nil, applies the chunk. It returns the round's pre-compression and
// on-the-wire byte counts.
func (c *RealClient) FetchRound(req Request, canvas *wavelet.Canvas) (rawN, wireN int, err error) {
	return c.fetchRound(req, canvas)
}

// FetchImage downloads one image progressively, measuring wall-clock QoS.
func (c *RealClient) FetchImage(img int, canvas *wavelet.Canvas) (ImageStat, error) {
	return c.fetchImage(img, canvas, nil, nil)
}

// FetchImageWith is FetchImage under a caller's recovery policy: before,
// when non-nil, runs ahead of every round attempt; repair is offered every
// failed round and either makes the session usable again (typically by
// Reconnect onto a replacement server) and returns nil, in which case the
// interrupted round is replayed and the transmission continues where it
// stopped, or returns the error that ends the fetch.
func (c *RealClient) FetchImageWith(img int, canvas *wavelet.Canvas, before func(img, round int), repair func(error) error) (ImageStat, error) {
	return c.fetchImage(img, canvas, before, repair)
}
