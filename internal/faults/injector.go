package faults

import (
	"fmt"
	"net"
	"sync"
	"time"

	"tunable/internal/metrics"
	"tunable/internal/prng"
)

// pollSlice is the granularity at which stalled connections re-check
// injector state and their deadlines.
const pollSlice = 2 * time.Millisecond

// Error is the error surfaced by injected faults on the real-TCP plane.
// It implements net.Error so the cluster retry layer classifies it exactly
// like a genuine network failure: stalls and partitions report
// Timeout()=true (the peer made no progress), resets report false (the
// connection died).
type Error struct {
	Kind    Kind
	Label   string
	IsStall bool
}

func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s on %s", e.Kind, e.Label)
}

// Timeout reports whether the fault manifests as missed progress.
func (e *Error) Timeout() bool { return e.IsStall }

// Temporary reports true: retrying against a replacement peer can succeed.
func (e *Error) Temporary() bool { return true }

// Injector applies a Schedule to real net.Conn traffic on the wall clock.
// Construct with New, wire connections through Conn or Dial, then Start
// the clock. Fault state is a pure function of elapsed time and the
// schedule; per-message drop decisions come from per-connection splitmix
// streams seeded by (schedule seed, label, connection ordinal), so one
// seed always produces one fault sequence.
type Injector struct {
	sched Schedule
	now   func() time.Duration // elapsed time since Start; tests set it to a fake clock

	mu      sync.Mutex
	started bool
	epoch   time.Time
	connSeq map[string]uint64
	log     []Injected

	reg       *metrics.Registry
	mInjected map[Kind]*metrics.Counter
}

// New creates an injector for the schedule. The schedule must validate.
func New(sched Schedule) (*Injector, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	return &Injector{sched: sched, connSeq: make(map[string]uint64)}, nil
}

// EnableMetrics instruments the injector: faults_injected_total, labelled
// by fault kind, counts every fault actually applied to a target.
func (in *Injector) EnableMetrics(reg *metrics.Registry) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.reg = reg
	in.mInjected = make(map[Kind]*metrics.Counter)
}

// Start fixes the schedule's epoch at the current instant. Events are
// offsets from this moment. Calling Start twice is an error.
func (in *Injector) Start() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.started {
		panic("faults: injector started twice")
	}
	in.started = true
	in.epoch = time.Now()
}

// Started reports whether the schedule clock is running.
func (in *Injector) Started() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.started
}

// elapsed returns time since Start; before Start the schedule is inert
// (no event window has opened).
func (in *Injector) elapsed() time.Duration {
	if in.now != nil {
		return in.now()
	}
	in.mu.Lock()
	started, epoch := in.started, in.epoch
	in.mu.Unlock()
	if !started {
		return -1
	}
	return time.Since(epoch)
}

// Log returns the fault log: every fault applied so far, in order.
func (in *Injector) Log() []Injected {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Injected(nil), in.log...)
}

// record appends one entry to the fault log and bumps the counter.
func (in *Injector) record(kind Kind, target, detail string, at time.Duration) {
	in.mu.Lock()
	in.log = append(in.log, Injected{At: at, Kind: kind, Target: target, Detail: detail})
	ctr := in.counterLocked(kind)
	in.mu.Unlock()
	ctr.Inc() // nil-safe when metrics are disabled
}

func (in *Injector) counterLocked(kind Kind) *metrics.Counter {
	if in.reg == nil {
		return nil
	}
	if c, ok := in.mInjected[kind]; ok {
		return c
	}
	c := in.reg.Counter("faults_injected_total",
		"Faults actually applied to a target, by kind.", metrics.L("kind", string(kind)))
	in.mInjected[kind] = c
	return c
}

// condition is the aggregate fault state for one label at one instant.
type condition struct {
	dropRate float64
	delay    time.Duration
	jitter   time.Duration
	bw       float64 // 0 = uncapped
	stalled  bool    // partition or pause active
	stallEnd time.Duration
	partit   bool // the stall is a partition (dials fail too)
}

// conditionAt folds every active matching event into one condition.
func (in *Injector) conditionAt(label string, t time.Duration) condition {
	var c condition
	if t < 0 {
		return c
	}
	for _, e := range in.sched.Events {
		if !e.Matches(label) || !e.ActiveAt(t) {
			continue
		}
		switch e.Kind {
		case Drop:
			if e.Rate > c.dropRate {
				c.dropRate = e.Rate
			}
		case Latency:
			c.delay += e.Delay
			c.jitter += e.Jitter
		case Bandwidth:
			if c.bw == 0 || e.Rate < c.bw {
				c.bw = e.Rate
			}
		case Partition, Pause:
			c.stalled = true
			c.partit = c.partit || e.Kind == Partition
			if end := e.At + e.Duration; end > c.stallEnd {
				c.stallEnd = end
			}
		}
	}
	return c
}

// resetDue returns the index of an unfired Reset event for this label
// whose instant has passed since the connection opened, or -1.
func (in *Injector) resetDue(label string, openedAt, t time.Duration, fired map[int]bool) int {
	for i, e := range in.sched.Events {
		if e.Kind != Reset || fired[i] || !e.Matches(label) {
			continue
		}
		if e.At > openedAt && e.At <= t {
			return i
		}
	}
	return -1
}

// Partitioned reports whether a partition currently covers the label.
func (in *Injector) Partitioned(label string) bool {
	c := in.conditionAt(label, in.elapsed())
	return c.stalled && c.partit
}

// Conn wraps a connection so the schedule's faults apply to its traffic.
// The label scopes which events hit it (see Event.Target).
func (in *Injector) Conn(label string, c net.Conn) net.Conn {
	in.mu.Lock()
	seq := in.connSeq[label]
	in.connSeq[label]++
	in.mu.Unlock()
	return &faultConn{
		Conn:     c,
		in:       in,
		label:    label,
		rng:      prng.New(in.sched.Seed ^ prng.Hash(label) ^ (seq * 0x9E3779B97F4A7C15)),
		openedAt: in.elapsed(),
		resets:   make(map[int]bool),
	}
}

// Dial dials through the injector: while a partition covers the label the
// dial fails with a timeout-flavored *Error, and successful dials return a
// fault-wrapped connection.
func (in *Injector) Dial(label, network, addr string, timeout time.Duration) (net.Conn, error) {
	if in.Partitioned(label) {
		in.record(Partition, label, "dial refused", in.elapsed())
		return nil, &Error{Kind: Partition, Label: label, IsStall: true}
	}
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return in.Conn(label, conn), nil
}

// faultConn is one fault-injected connection. It intercepts deadlines so
// injected stalls still honor the progress-deadline discipline the avis
// frame layer arms: a stalled read returns a timeout net.Error when the
// caller's deadline expires, exactly like a dead peer.
type faultConn struct {
	net.Conn
	in       *Injector
	label    string
	openedAt time.Duration

	mu         sync.Mutex
	rng        *prng.Splitmix
	blackholed bool
	closed     bool
	resets     map[int]bool
	readDL     time.Time
	writeDL    time.Time
}

// SetDeadline records and forwards both deadlines.
func (c *faultConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL, c.writeDL = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// SetReadDeadline records and forwards the read deadline.
func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// SetWriteDeadline records and forwards the write deadline.
func (c *faultConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDL = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// Close closes the underlying connection and releases stalled I/O.
func (c *faultConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.Conn.Close()
}

// checkReset fires a due Reset event at most once per connection: the
// underlying conn is closed and the fault is logged.
func (c *faultConn) checkReset(now time.Duration) error {
	c.mu.Lock()
	idx := c.in.resetDue(c.label, c.openedAt, now, c.resets)
	if idx < 0 {
		c.mu.Unlock()
		return nil
	}
	c.resets[idx] = true
	c.closed = true
	c.mu.Unlock()
	c.in.record(Reset, c.label, "connection reset", now)
	_ = c.Conn.Close()
	return &Error{Kind: Reset, Label: c.label}
}

// stall blocks while the label is stalled (partition/pause) or the conn is
// black-holed, returning a timeout error if the deadline passes first.
// isRead selects which recorded deadline applies.
func (c *faultConn) stall(kind Kind, isRead bool) error {
	for {
		c.mu.Lock()
		closed := c.closed
		dl := c.writeDL
		if isRead {
			dl = c.readDL
		}
		c.mu.Unlock()
		if closed {
			return net.ErrClosed
		}
		if !dl.IsZero() && !time.Now().Before(dl) {
			return &Error{Kind: kind, Label: c.label, IsStall: true}
		}
		now := c.in.elapsed()
		cond := c.in.conditionAt(c.label, now)
		c.mu.Lock()
		bh := c.blackholed
		c.mu.Unlock()
		if !bh && !cond.stalled {
			return nil
		}
		time.Sleep(pollSlice)
	}
}

// Read applies resets, stalls, latency, and drop decisions, in that order.
func (c *faultConn) Read(p []byte) (int, error) {
	for {
		now := c.in.elapsed()
		if err := c.checkReset(now); err != nil {
			return 0, err
		}
		cond := c.in.conditionAt(c.label, now)
		c.mu.Lock()
		bh := c.blackholed
		c.mu.Unlock()
		if bh || cond.stalled {
			kind := Drop
			if cond.stalled {
				kind = Partition
				if !cond.partit {
					kind = Pause
				}
			}
			if err := c.stall(kind, true); err != nil {
				return 0, err
			}
			continue // stall cleared (pause window ended): retry
		}
		if cond.delay > 0 || cond.jitter > 0 {
			c.mu.Lock()
			j := time.Duration(c.rng.Float64() * float64(cond.jitter))
			c.mu.Unlock()
			time.Sleep(cond.delay + j)
		}
		n, err := c.Conn.Read(p)
		if n > 0 && cond.dropRate > 0 {
			c.mu.Lock()
			hit := c.rng.Float64() < cond.dropRate
			if hit {
				c.blackholed = true
			}
			c.mu.Unlock()
			if hit {
				// The message is lost and, this being a byte stream, nothing
				// after it can be delivered either: black-hole the connection
				// and let the caller's progress deadline kill it.
				c.in.record(Drop, c.label, fmt.Sprintf("dropped %dB, conn black-holed", n), now)
				continue
			}
		}
		if cond.bw > 0 && n > 0 {
			time.Sleep(time.Duration(float64(n) / cond.bw * float64(time.Second)))
		}
		return n, err
	}
}

// Write swallows traffic into stalled or black-holed connections (the
// local TCP buffer accepts it; the network eats it) and otherwise shapes
// and forwards it.
func (c *faultConn) Write(p []byte) (int, error) {
	now := c.in.elapsed()
	if err := c.checkReset(now); err != nil {
		return 0, err
	}
	cond := c.in.conditionAt(c.label, now)
	c.mu.Lock()
	bh := c.blackholed
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return 0, net.ErrClosed
	}
	if bh || cond.stalled {
		return len(p), nil
	}
	if cond.bw > 0 && len(p) > 0 {
		time.Sleep(time.Duration(float64(len(p)) / cond.bw * float64(time.Second)))
	}
	return c.Conn.Write(p)
}
