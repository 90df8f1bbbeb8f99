package cluster

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"time"

	"tunable/internal/avis"
	"tunable/internal/metrics"
	"tunable/internal/netem"
	"tunable/internal/wavelet"
)

// FailoverClient is a cluster-aware avis client: it resolves its server
// through the coordinator and, when the server dies mid-session, dials a
// replacement and moves the avis session onto it (RealClient.Reconnect
// replays the protocol state; the interrupted round is re-issued and
// delivered increments are never re-fetched). The session loop is
// avis's; what lives here is the policy around it — which failures are
// worth a failover, how many, how fast, and where to.
type FailoverClient struct {
	resolver *Resolver
	params   avis.Params
	sid      string

	ioTimeout   time.Duration
	dialTimeout time.Duration
	bw          float64
	demandCPU   float64
	demandMem   int64
	preferEdge  bool
	maxFail     int
	backoff     Backoff
	budget      *RetryBudget
	dial        func(nodeID, addr string, timeout time.Duration) (net.Conn, error)
	roundHook   func(img, round int)

	cur     *avis.RealClient // one session for life; failover swaps its connection
	conn    net.Conn         // the current data connection, shaped
	nodeID  string
	sig     string
	failed  []string
	retries int64

	reg        *metrics.Registry
	mFailovers *metrics.Counter
	mRetries   *metrics.Counter
}

// FailoverOption customizes a FailoverClient.
type FailoverOption func(*FailoverClient)

// WithIOTimeout sets the per-frame progress deadline on data connections.
// Without it a dead server blocks forever and failover never triggers, so
// DialFailover defaults to 5s; pass 0 explicitly to wait forever.
func WithIOTimeout(d time.Duration) FailoverOption {
	return func(f *FailoverClient) { f.ioTimeout = d }
}

// WithBandwidth shapes each data connection to bytesPerSec (0 = unshaped).
func WithBandwidth(bytesPerSec float64) FailoverOption {
	return func(f *FailoverClient) { f.bw = bytesPerSec }
}

// WithSessionDemand declares the per-session resource demand presented to
// admission control (CPU as a share of one node, mem in bytes).
func WithSessionDemand(cpu float64, memBytes int64) FailoverOption {
	return func(f *FailoverClient) { f.demandCPU, f.demandMem = cpu, memBytes }
}

// WithPreferEdge marks the session as coarse-level traffic: placement
// considers edge cache nodes and prefers them over origins. When every
// matching edge has failed (or none is registered) the session lands on
// an origin instead — the fallback WithMaxFailovers already polices.
func WithPreferEdge() FailoverOption {
	return func(f *FailoverClient) { f.preferEdge = true }
}

// WithMaxFailovers bounds how many node failures one image fetch survives
// (default 3).
func WithMaxFailovers(n int) FailoverOption {
	return func(f *FailoverClient) { f.maxFail = n }
}

// WithFailoverBackoff sets the jittered exponential backoff slept between
// failover attempts (default DefaultBackoff). A crashed node's sessions
// all re-resolve at once; the jitter keeps them from stampeding the
// coordinator and the replacement server in lock-step.
func WithFailoverBackoff(b Backoff) FailoverOption {
	return func(f *FailoverClient) { f.backoff = b }
}

// WithRetryBudget caps the total retry spend of the session across all
// fetches (nil, the default, is unlimited). When the budget runs dry the
// next failure surfaces immediately instead of burning more attempts.
func WithRetryBudget(rb *RetryBudget) FailoverOption {
	return func(f *FailoverClient) { f.budget = rb }
}

// WithDialer interposes on data-plane dials — the seam the fault-injection
// layer uses to wrap each per-node connection (nodeID scopes the faults).
func WithDialer(dial func(nodeID, addr string, timeout time.Duration) (net.Conn, error)) FailoverOption {
	return func(f *FailoverClient) { f.dial = dial }
}

// WithRoundHook installs a callback invoked before each round request —
// progress reporting for UIs, and the hook fault-injection tests use to
// kill a server at a chosen point in the stream.
func WithRoundHook(fn func(img, round int)) FailoverOption {
	return func(f *FailoverClient) { f.roundHook = fn }
}

// DialFailover resolves a server through the coordinator and connects.
func DialFailover(r *Resolver, params avis.Params, opts ...FailoverOption) (*FailoverClient, error) {
	var sid [8]byte
	if _, err := rand.Read(sid[:]); err != nil {
		return nil, fmt.Errorf("cluster: session id: %w", err)
	}
	f := &FailoverClient{
		resolver:    r,
		params:      params,
		sid:         hex.EncodeToString(sid[:]),
		ioTimeout:   5 * time.Second,
		dialTimeout: 5 * time.Second,
		maxFail:     3,
		backoff:     DefaultBackoff(),
	}
	for _, o := range opts {
		o(f)
	}
	if err := f.connect(); err != nil {
		return nil, err
	}
	return f, nil
}

// EnableMetrics instruments the client: avis_failovers_total and
// avis_round_retries_total on top of the usual avis_* client families,
// and, under WithBandwidth, the netem_conn_* families of the shaped data
// connection and of each replacement a failover dials.
func (f *FailoverClient) EnableMetrics(reg *metrics.Registry) {
	f.reg = reg
	f.mFailovers = reg.Counter("avis_failovers_total",
		"Sessions re-established on a replacement server after a node failure.")
	f.mRetries = reg.Counter("avis_round_retries_total",
		"Interrupted rounds replayed after a connection failure.")
	f.cur.EnableMetrics(reg)
	f.instrumentConn()
}

// shape applies the session's bandwidth limit to a freshly dialed data
// connection and makes it the current one.
func (f *FailoverClient) shape(conn net.Conn) net.Conn {
	f.conn = avis.Shape(conn, f.bw)
	f.instrumentConn()
	return f.conn
}

// instrumentConn registers the current connection's shaper, if it has
// one, once EnableMetrics has run; a replacement joins the same families.
func (f *FailoverClient) instrumentConn() {
	if sc, ok := f.conn.(*netem.ShapedConn); ok && f.reg != nil {
		sc.EnableMetrics(f.reg)
	}
}

// connect resolves and dials a server and puts the session on it.
func (f *FailoverClient) connect() error {
	grant, err := f.resolver.Resolve(ResolveRequest{
		SID:      f.sid,
		Exclude:  f.failed,
		CPU:      f.demandCPU,
		MemBytes: f.demandMem,
		Sig:      f.sig,
		Coarse:   f.preferEdge,
	})
	if err != nil {
		return err
	}
	var conn net.Conn
	if f.dial != nil {
		conn, err = f.dial(grant.NodeID, grant.Addr, f.dialTimeout)
	} else {
		conn, err = net.DialTimeout("tcp", grant.Addr, f.dialTimeout)
	}
	if err != nil {
		return fmt.Errorf("cluster: dial node %s (%s): %w", grant.NodeID, grant.Addr, err)
	}
	// Either way the handshake puts the session's protocol state on the
	// server: hello, then the codec announcement.
	if f.cur != nil {
		err = f.cur.Reconnect(f.shape(conn))
	} else {
		var c *avis.RealClient
		if c, err = avis.NewRealClient(f.shape(conn), f.params); err == nil {
			c.SetIOTimeout(f.ioTimeout)
			if err = c.Connect(); err == nil {
				f.cur = c
			}
		}
		if err != nil {
			conn.Close()
		}
	}
	if err != nil {
		return err
	}
	f.nodeID = grant.NodeID
	if f.sig == "" {
		// Pin the session to this image store so every failover target can
		// replay it.
		f.sig = grant.Sig
	}
	return nil
}

// failover marks the current node failed and reconnects elsewhere.
func (f *FailoverClient) failover() error {
	f.failed = append(f.failed, f.nodeID)
	_ = f.cur.Close() // best effort on a dead connection
	if err := f.connect(); err != nil {
		return err
	}
	f.mFailovers.Inc()
	return nil
}

// Geometry returns the current server's announced geometry.
func (f *FailoverClient) Geometry() avis.Geometry { return f.cur.Geometry() }

// Node returns the ID of the node currently serving the session.
func (f *FailoverClient) Node() string { return f.nodeID }

// Failovers returns how many times the session has been re-placed.
func (f *FailoverClient) Failovers() int { return len(f.failed) }

// Retries returns how many interrupted rounds the session has replayed.
func (f *FailoverClient) Retries() int { return int(f.retries) }

// FetchImage downloads one image progressively, surviving up to
// WithMaxFailovers node deaths: an interrupted round is replayed on a
// replacement server and the transmission continues where it stopped.
func (f *FailoverClient) FetchImage(img int, canvas *wavelet.Canvas) (avis.ImageStat, error) {
	attempts := 0
	return f.cur.FetchImageWith(img, canvas, f.roundHook, func(err error) error {
		// A refusal is not retried: the replacement would refuse identically.
		if !avis.IsTransportError(err) {
			return err
		}
		attempts++
		if attempts > f.maxFail {
			return fmt.Errorf("cluster: image %d: giving up after %d failovers: %w", img, f.maxFail, err)
		}
		if !f.budget.Allow() {
			return fmt.Errorf("cluster: image %d: retry budget exhausted: %w", img, err)
		}
		f.retries++
		f.mRetries.Inc()
		// Jittered backoff before re-resolving: every session the dead
		// node carried is doing this at once.
		time.Sleep(f.backoff.Delay(attempts - 1))
		if ferr := f.failover(); ferr != nil {
			return fmt.Errorf("cluster: failover after %v: %w", err, ferr)
		}
		return nil
	})
}

// Close ends the session on both planes: the data connection and the
// coordinator's reservation.
func (f *FailoverClient) Close() error {
	err := f.cur.Close()
	if eerr := f.resolver.EndSession(f.sid); eerr != nil && err == nil {
		err = eerr
	}
	return err
}
