package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tunable/internal/avis"
	"tunable/internal/bufpool"
	"tunable/internal/metrics"
	"tunable/internal/wire"
)

// Control-plane wire protocol: each message is one internal/wire frame
// whose tag byte names the request and whose body is a message coded by
// its codec method (codec.go, delta.go). The framing, handshake and
// timeout discipline are shared with the data plane (a wedged coordinator
// surfaces as avis.ErrIOTimeout).
const (
	ctagRegister   = 'g' // agent → coord: NodeInfo
	ctagHeartbeat  = 'h' // agent → coord: deltaBatch
	ctagDeregister = 'd' // agent → coord: node ID (clean leave)
	ctagResolve    = 'v' // client → coord: ResolveRequest
	ctagEndSession = 'e' // client → coord: session ID
	ctagNodes      = 'n' // anyone → coord: registry listing
	ctagAck        = 'a' // coord → caller: ackMsg
	// 'D', 'p' and 'q' are reserved: older builds sent hand-packed delta
	// batches, perf-sample ingests and profile fetches under them; do not
	// reuse them.
)

// ResolveRequest asks the coordinator to place (or re-place) a session.
type ResolveRequest struct {
	SID     string
	Exclude []string // nodes the client saw fail
	// Per-session resource demand for admission control; CPU ≤ 0 takes
	// DefaultSessionShare, MemBytes 0 reserves no explicit memory.
	CPU      float64
	MemBytes int64
	// Sig pins the session to nodes serving this image store ("" = any).
	Sig string
	// Coarse marks a session that mostly fetches coarse pyramid levels —
	// the cache-friendly traffic class. Edge nodes become eligible and are
	// preferred; without it only origin servers are considered.
	Coarse bool
}

// ResolveGrant is the coordinator's placement answer.
type ResolveGrant struct {
	NodeID   string
	Addr     string
	Sig      string
	Failover bool // true when this re-placed an existing session
}

// ackMsg is the single coordinator reply shape; fields beyond OK/Err are
// populated per request type.
type ackMsg struct {
	OK    bool
	Err   string
	Grant ResolveGrant
	Nodes []NodeStatus
	// Unknown echoes the heartbeat entries the coordinator refused
	// (unknown or dead nodes); the agent re-registers them.
	Unknown []string
}

// ctrlReq renders one control request — tag byte plus body — appending to
// buf (a pooled buffer sliced to [:0]).
type ctrlReq func(buf []byte) ([]byte, error)

// ctrlConn is one request/reply control-plane connection. Calls are
// serialized; both the agent and the resolver keep a pool alive and
// redial lazily on failure.
type ctrlConn struct {
	conn net.Conn
	wc   *wire.Conn
}

// newCtrlConn wraps a dialed connection and runs the wire handshake; a
// coordinator that does not complete it is refused (*wire.HandshakeError,
// or a timeout when it says nothing).
func newCtrlConn(conn net.Conn, timeout time.Duration, inst wire.Instruments) (*ctrlConn, error) {
	cc := &ctrlConn{conn: conn, wc: wire.NewConn(conn, timeout)}
	cc.wc.SetInstruments(inst)
	if err := cc.wc.StartClient(0); err != nil {
		_ = conn.Close()
		return nil, avis.WrapTimeout("negotiate", timeout, err)
	}
	return cc, nil
}

// call sends one rendered request frame and decodes the coordinator's
// ack. An ack with OK=false is returned as an error.
func (c *ctrlConn) call(frame []byte, timeout time.Duration) (ackMsg, error) {
	if err := c.wc.WriteMsg(frame); err != nil {
		return ackMsg{}, avis.WrapTimeout("write", timeout, err)
	}
	msg, err := c.wc.ReadMsg()
	if err != nil {
		return ackMsg{}, avis.WrapTimeout("read", timeout, err)
	}
	defer bufpool.Put(msg)
	if msg[0] != ctagAck {
		return ackMsg{}, fmt.Errorf("cluster: unexpected reply frame")
	}
	var ack ackMsg
	d := wire.NewDecoder(msg[1:])
	for d.Next() {
		ack.codec(d)
	}
	if err := d.Err(); err != nil {
		return ackMsg{}, err
	}
	if !ack.OK {
		return ack, fmt.Errorf("cluster: coordinator refused: %s", ack.Err)
	}
	return ack, nil
}

func (c *ctrlConn) close() {
	if c != nil {
		_ = c.conn.Close()
	}
}

// DialFunc dials the coordinator's control port; injectable so the fault
// layer (or a test) can interpose on every control-plane connection.
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// maxIdleCtrl bounds how many idle control connections a client keeps
// pooled between calls.
const maxIdleCtrl = 8

// client is the shared retry loop under Agent and Resolver: a bounded
// pool of persistent connections, re-established with jittered
// exponential backoff under a retry budget when calls fail in transport.
// Application-level refusals (the coordinator answered, but said no) are
// never retried — a replacement attempt would be refused identically.
//
// mu guards only the pool and the policy fields, never a network round
// trip: concurrent callers check out separate connections (dialing fresh
// ones past the idle pool) and run their calls in parallel, so one slow
// control call no longer serializes every other caller of the same stub.
type client struct {
	addr    string
	timeout time.Duration

	mu       sync.Mutex
	idle     []*ctrlConn
	closed   bool
	dial     DialFunc
	attempts int // per-call cap, including the first try
	backoff  Backoff
	budget   *RetryBudget

	// telemetry instruments; zero (no-op) unless enableMetrics ran
	mRetries *metrics.Counter
	wInst    wire.Instruments
}

func newClient(addr string, timeout time.Duration) *client {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &client{
		addr:     addr,
		timeout:  timeout,
		attempts: 2, // one transparent retry by default, as before
		backoff:  DefaultBackoff(),
	}
}

// setRetryPolicy reconfigures the per-call retry loop. attempts includes
// the first try; values below 1 are clamped to 1 (no retries).
func (c *client) setRetryPolicy(attempts int, b Backoff, budget *RetryBudget) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if attempts < 1 {
		attempts = 1
	}
	c.attempts = attempts
	c.backoff = b
	c.budget = budget
}

// enableMetrics instruments the client: cluster_ctrl_retries_total
// labeled with the caller's role, and the wire_* families of its control
// connections.
func (c *client) enableMetrics(reg *metrics.Registry, role string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mRetries = reg.Counter("cluster_ctrl_retries_total",
		"Control-plane calls transparently retried after a transport failure.",
		metrics.L("role", role))
	c.wInst = wire.NewInstruments(reg)
}

func (c *client) setDialer(dial DialFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dial = dial
}

// acquire checks a connection out of the idle pool, dialing a fresh one
// when the pool is empty. The dial runs outside mu.
func (c *client) acquire() (*ctrlConn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	dial, inst := c.dial, c.wInst
	c.mu.Unlock()
	if dial == nil {
		dial = net.DialTimeout
	}
	conn, err := dial("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial coordinator %s: %w", c.addr, err)
	}
	return newCtrlConn(conn, c.timeout, inst)
}

// release returns a healthy connection to the pool (or closes it when the
// pool is full or the client is closed).
func (c *client) release(cc *ctrlConn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < maxIdleCtrl {
		c.idle = append(c.idle, cc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cc.close()
}

// call issues one request, retrying transport failures (broken pooled
// connections, failed dials, timed-out frames) under the retry policy.
// Each attempt already carries its own deadline (the dial timeout plus
// the per-frame progress deadline), so the whole call is bounded by
// attempts·(timeout+backoff). Deterministic failures are returned at
// once, costing neither a healthy connection nor retry budget: a request
// that does not encode, a frame past wire.FrameLimit (rejected before any
// byte is written), and a peer that refuses the wire handshake would all
// fail identically on every attempt.
func (c *client) call(req ctrlReq) (ackMsg, error) {
	frame, err := req(bufpool.Get(256)[:0])
	if err != nil {
		return ackMsg{}, err
	}
	defer bufpool.Put(frame)
	c.mu.Lock()
	attempts, backoff, budget := c.attempts, c.backoff, c.budget
	retries := c.mRetries
	c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		cc, err := c.acquire()
		if err == nil {
			var ack ackMsg
			ack, err = cc.call(frame, c.timeout)
			if err == nil || ack.Err != "" || errors.Is(err, wire.ErrFrameTooLarge) {
				// Granted, refused by the coordinator, or never sent: the
				// connection is fine either way.
				c.release(cc)
				return ack, err
			}
			cc.close()
		}
		var refused *wire.HandshakeError
		if errors.As(err, &refused) || attempt+1 >= attempts || !budget.Allow() {
			return ackMsg{}, err
		}
		retries.Inc()
		time.Sleep(backoff.Delay(attempt))
	}
}

func (c *client) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, cc := range c.idle {
		cc.close()
	}
	c.idle = nil
}
