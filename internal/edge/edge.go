package edge

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tunable/internal/avis"
	"tunable/internal/bufpool"
	"tunable/internal/compress"
	"tunable/internal/metrics"
	"tunable/internal/wire"
)

// DefaultOriginCodec compresses the origin leg. The edge decodes every
// origin reply back to raw chunk bytes and compresses them once under the
// asking client's codec — that form is what it caches — so the origin-leg
// codec only trades origin bandwidth against edge CPU on a miss; lzw is
// the cheapest codec the repertoire has that compresses at all.
const DefaultOriginCodec = "lzw"

// Defaults for Config zero values.
const (
	DefaultCacheEntries  = 4096
	DefaultCacheBytes    = 256 << 20
	DefaultTTL           = 5 * time.Minute
	DefaultOriginRetries = 3
	DefaultPrewarmQueue  = 64
)

// Config parameterizes one edge proxy.
type Config struct {
	// OriginAddr is the origin server's TCP address. OriginDial, when
	// non-nil, replaces the default dialer — the seam for fault injection
	// and link shaping in tests.
	OriginAddr string
	OriginDial func() (net.Conn, error)

	// OriginCodec compresses the origin leg (default DefaultOriginCodec).
	OriginCodec string

	// Sig is the origin's content signature — the same store signature
	// cluster sessions pin on. It prefixes every cache key, so an edge
	// restarted against a different image set can never serve stale bytes.
	Sig string

	// Cache bounds: entry count, summed bytes of the cached (compressed)
	// replies, and per-entry TTL.
	// Zero values take the Default* constants; a negative CacheEntries or
	// CacheBytes lifts that bound.
	CacheEntries int
	CacheBytes   int64
	TTL          time.Duration

	// CoarseMax is the largest pyramid level served from cache; finer
	// levels always stream from origin. Zero means geom.Levels-1 (cache
	// everything below full resolution); negative disables caching.
	CoarseMax int

	// SegBytes is the client-facing reply segment size (0 = the protocol
	// default). IOTimeout bounds frame-I/O progress on both legs.
	SegBytes  int
	IOTimeout time.Duration

	// Prewarm enables the fovea-trajectory prewarmer. PrewarmWindow is the
	// trajectory history length (0 = monitor.DefaultTrajectoryWindow);
	// TeleportDist is the fovea jump that resets extrapolation (0 = a
	// quarter of the image side); PrewarmQueue bounds the task backlog
	// (0 = DefaultPrewarmQueue).
	Prewarm       bool
	PrewarmWindow int
	TeleportDist  float64
	PrewarmQueue  int

	// OriginRetries is how many times a transport-failed origin round is
	// retried on a fresh connection before the client-facing connection is
	// dropped (0 = DefaultOriginRetries; negative = no retries).
	OriginRetries int
}

// flight is one in-progress origin fetch that concurrent cache misses for
// the same key coalesce onto.
type flight struct {
	done  chan struct{}
	entry cacheEntry
	err   error
}

// Proxy is one edge node: it terminates the avis protocol toward clients
// and serves coarse levels from its chunk cache, streaming misses and
// fine levels from the origin over a pooled connection leg.
type Proxy struct {
	cfg     Config
	geom    avis.Geometry
	cache   *chunkCache
	origins *originPool
	pw      *prewarmer

	flightMu sync.Mutex
	flights  map[chunkKey]*flight

	accept wire.Acceptor // client-facing connections

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mConns         *metrics.Counter
	mRequests      *metrics.Counter
	mErrors        *metrics.Counter
	mServeCache    *metrics.Histogram
	mServeOrigin   *metrics.Histogram
	mOriginSeconds *metrics.Histogram
	mOriginRetries *metrics.Counter
	wInst          wire.Instruments
}

// New creates an edge proxy. Start must run before Serve.
func New(cfg Config) (*Proxy, error) {
	if cfg.OriginDial == nil {
		if cfg.OriginAddr == "" {
			return nil, fmt.Errorf("edge: neither OriginAddr nor OriginDial set")
		}
		addr := cfg.OriginAddr
		cfg.OriginDial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.OriginCodec == "" {
		cfg.OriginCodec = DefaultOriginCodec
	}
	if _, err := compress.Lookup(cfg.OriginCodec); err != nil {
		return nil, err
	}
	if cfg.Sig == "" {
		cfg.Sig = "unsigned"
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.TTL == 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.OriginRetries == 0 {
		cfg.OriginRetries = DefaultOriginRetries
	} else if cfg.OriginRetries < 0 {
		cfg.OriginRetries = 0 // one attempt, no retry
	}
	p := &Proxy{
		cfg:     cfg,
		cache:   newChunkCache(max0(cfg.CacheEntries), int64(max0(int(cfg.CacheBytes))), cfg.TTL),
		flights: make(map[chunkKey]*flight),
	}
	p.origins = &originPool{
		dial:      cfg.OriginDial,
		codec:     cfg.OriginCodec,
		ioTimeout: cfg.IOTimeout,
	}
	if cfg.Prewarm {
		p.pw = newPrewarmer(p, cfg.PrewarmQueue)
	}
	return p, nil
}

// max0 maps negative (= unbounded) to 0, the lru package's "no bound".
func max0(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// EnableMetrics instruments the proxy. Metric families: edge_cache_*
// (hits, misses, prewarm hits, evictions by reason, hit ratio, occupancy),
// edge_connections_total, edge_requests_total, edge_errors_total,
// edge_serve_seconds labeled source=cache|origin, edge_origin_fetch_seconds,
// edge_origin_retries_total, and the edge_prewarm_* family. Every label
// set is closed: source ∈ {cache, origin}, reason ∈ {capacity, expired}.
func (p *Proxy) EnableMetrics(reg *metrics.Registry) {
	p.cache.enableMetrics(reg)
	p.mConns = reg.Counter("edge_connections_total", "Client connections accepted by the edge.")
	p.mRequests = reg.Counter("edge_requests_total", "Foveal region requests served by the edge.")
	p.mErrors = reg.Counter("edge_errors_total", "Protocol or serve errors returned to edge clients.")
	p.mServeCache = reg.Histogram("edge_serve_seconds",
		"Wall-clock latency of serving one request, by payload source.", metrics.L("source", "cache"))
	p.mServeOrigin = reg.Histogram("edge_serve_seconds",
		"Wall-clock latency of serving one request, by payload source.", metrics.L("source", "origin"))
	p.mOriginSeconds = reg.Histogram("edge_origin_fetch_seconds",
		"Wall-clock latency of one origin round (send request, gather and decode reply).")
	p.mOriginRetries = reg.Counter("edge_origin_retries_total",
		"Origin rounds retried on a fresh connection after a transport failure.")
	if p.pw != nil {
		p.pw.enableMetrics(reg)
	}
	p.wInst = wire.NewInstruments(reg)
}

// Start dials the origin once to learn its geometry and spins up the
// prewarm worker. It must complete before Serve.
func (p *Proxy) Start() error {
	c, err := p.origins.get()
	if err != nil {
		return fmt.Errorf("edge: origin handshake: %w", err)
	}
	p.geom = c.Geometry()
	p.origins.put(c)
	if p.cfg.CoarseMax == 0 {
		p.cfg.CoarseMax = p.geom.Levels - 1
	}
	if p.cfg.TeleportDist == 0 {
		p.cfg.TeleportDist = float64(p.geom.Side) / 4
	}
	if p.pw != nil {
		p.pw.start()
	}
	return nil
}

// Geometry returns the origin's announced geometry (valid after Start).
func (p *Proxy) Geometry() avis.Geometry { return p.geom }

// Stats returns a snapshot of the cache counters.
func (p *Proxy) Stats() CacheStats { return p.cache.stats() }

// ActiveSessions reports the client connections currently being served;
// node agents feed it into cluster heartbeats as the load signal.
func (p *Proxy) ActiveSessions() int { return p.accept.Active() }

// Serve accepts client connections until the listener closes, running the
// server half of the avis session on each in its own goroutine. After
// Shutdown it returns net.ErrClosed.
func (p *Proxy) Serve(l net.Listener) error {
	return p.accept.Serve(l, p.cfg.IOTimeout, p.wInst, func(wc *wire.Conn) {
		p.mConns.Inc()
		_ = avis.ServeConn(wc, p.geom, p.cfg.SegBytes, &clientLeg{p: p, track: p.newTracker()})
	})
}

// Shutdown drains the proxy: stop accepting, wait up to timeout for
// in-flight sessions, force-close stragglers, then stop the prewarmer and
// close the origin leg. Returns the number of force-closed connections.
func (p *Proxy) Shutdown(timeout time.Duration) int {
	forced := p.accept.Shutdown(timeout)
	if p.pw != nil {
		p.pw.stop()
	}
	p.origins.closeAll()
	return forced
}

// clientLeg is one client connection's avis.Handler: coarse levels consult
// the cache (and coalesce misses through single-flight), fine levels
// stream through. Cached or not, a reply is the origin's raw chunk bytes
// compressed with the client's codec, so the bytes a client receives are
// identical whether they crossed the cache or not; the cache just keeps
// them in that form, and a hit compresses nothing. An origin transport
// failure (after retries) comes back from Reply as such, which drops the
// client connection without an error frame so a cluster FailoverClient
// re-places the session — typically straight onto the origin.
type clientLeg struct {
	p     *Proxy
	track *foveaTracker
	hit   bool // the request being answered was a cache hit
}

func (c *clientLeg) Reply(req avis.Request, codec compress.Codec) (enc []byte, rawLen int, pooled bool, err error) {
	p := c.p
	p.mRequests.Inc()
	c.hit = false
	if req.Image < 0 || req.Image >= p.geom.NumImages {
		return nil, 0, false, fmt.Errorf("image %d out of range", req.Image)
	}
	if p.cfg.CoarseMax < 0 || req.Level > p.cfg.CoarseMax {
		enc, rawLen, err = p.encodeFromOrigin(req, codec)
		return enc, rawLen, true, err
	}
	key := cacheKey(p.cfg.Sig, req, codec.Name())
	var e cacheEntry
	if e, c.hit = p.cache.lookup(key); !c.hit {
		if e, err = p.fetchShared(key, codec, false); err != nil {
			return nil, 0, false, err
		}
	}
	c.track.observe(req, codec)
	return e.enc, e.rawLen, false, nil
}

func (c *clientLeg) Replied(took time.Duration, err error) {
	switch {
	case err != nil:
		c.p.mErrors.Inc()
	case c.hit:
		c.p.mServeCache.Observe(took.Seconds())
	default:
		c.p.mServeOrigin.Observe(took.Seconds())
	}
}

// fetchShared coalesces concurrent misses on one cache key: the first
// caller performs the origin round, compresses the payload with codec
// (the one key names) and inserts the result, copied out of the pooled
// buffer into an exactly sized slice the cache owns; everyone else waits
// on its flight. Callers treat the entry's bytes as read-only.
func (p *Proxy) fetchShared(key chunkKey, codec compress.Codec, prewarmed bool) (cacheEntry, error) {
	p.flightMu.Lock()
	if f, ok := p.flights[key]; ok {
		p.flightMu.Unlock()
		<-f.done
		return f.entry, f.err
	}
	f := &flight{done: make(chan struct{})}
	p.flights[key] = f
	p.flightMu.Unlock()

	enc, rawLen, err := p.encodeFromOrigin(key.req, codec)
	if err == nil {
		f.entry = cacheEntry{enc: append(make([]byte, 0, len(enc)), enc...), rawLen: rawLen, prewarmed: prewarmed}
		bufpool.Put(enc)
		p.cache.insert(key, f.entry)
	}
	f.err = err
	p.flightMu.Lock()
	delete(p.flights, key)
	p.flightMu.Unlock()
	close(f.done)
	return f.entry, err
}

// encodeFromOrigin is the edge's one compression site: an origin round for
// the raw chunk bytes, compressed with the client's codec into a pooled
// buffer the caller recycles. Cache misses keep a copy; fine levels, which
// are never cached, hand the buffer to the session loop as it is.
func (p *Proxy) encodeFromOrigin(req avis.Request, codec compress.Codec) (enc []byte, rawLen int, err error) {
	raw, err := p.fetchOrigin(req)
	if err != nil {
		return nil, 0, err
	}
	enc = codec.Encode(raw)
	bufpool.Put(raw)
	return enc, len(raw), nil
}

// fetchOrigin performs one origin round, retrying transport failures on a
// fresh connection. Application-level refusals are returned immediately —
// the origin would refuse a replay identically. A connection goes back to
// the idle pool only after a round that ended cleanly (a complete reply or
// the origin's error frame); after anything else — a malformed segment
// mid-reply, say — unread bytes of the failed reply may still be in
// flight, so it is discarded.
func (p *Proxy) fetchOrigin(req avis.Request) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= p.cfg.OriginRetries; attempt++ {
		if attempt > 0 {
			p.mOriginRetries.Inc()
		}
		c, err := p.origins.get()
		if err != nil {
			lastErr = err
			continue
		}
		t0 := time.Now()
		data, _, err := c.FetchRoundRaw(req)
		if err == nil {
			p.mOriginSeconds.Observe(time.Since(t0).Seconds())
			p.origins.put(c)
			return data, nil
		}
		var refused *avis.RefusedError
		if errors.As(err, &refused) {
			p.origins.put(c)
			return nil, err
		}
		_ = c.Close()
		if !avis.IsTransportError(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// originPool recycles connected origin-leg clients across rounds: an idle
// client is reused, a missing one is dialed and handshaken on demand, and
// a client whose round did not end cleanly is closed by the caller instead
// of being put back.
type originPool struct {
	dial      func() (net.Conn, error)
	codec     string
	ioTimeout time.Duration

	mu     sync.Mutex
	idle   []*avis.RealClient
	closed bool
}

func (op *originPool) get() (*avis.RealClient, error) {
	op.mu.Lock()
	if n := len(op.idle); n > 0 {
		c := op.idle[n-1]
		op.idle = op.idle[:n-1]
		op.mu.Unlock()
		return c, nil
	}
	op.mu.Unlock()
	conn, err := op.dial()
	if err != nil {
		return nil, err
	}
	c, err := avis.NewRealClient(conn, avis.Params{DR: 1, Codec: op.codec})
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.SetIOTimeout(op.ioTimeout)
	if err := c.Connect(); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

func (op *originPool) put(c *avis.RealClient) {
	op.mu.Lock()
	if op.closed {
		op.mu.Unlock()
		_ = c.Close()
		return
	}
	op.idle = append(op.idle, c)
	op.mu.Unlock()
}

func (op *originPool) closeAll() {
	op.mu.Lock()
	idle := op.idle
	op.idle, op.closed = nil, true
	op.mu.Unlock()
	for _, c := range idle {
		_ = c.Close()
	}
}
