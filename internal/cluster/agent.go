package cluster

import (
	"fmt"
	"log"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"tunable/internal/metrics"
	"tunable/internal/wire"
)

// hbJitter is the fraction of the heartbeat interval each beat is
// randomized by (±10%): after a coordinator restart every agent rejoins
// at once, and without jitter their flush timers stay phase-locked,
// hammering the coordinator in synchronized waves forever.
const hbJitter = 0.10

// Agent is the node-side half of the registry: it registers a server with
// the coordinator and renews it with periodic flushes of the node's
// coalesced load delta (a heartbeat of one entry — the liveness signal is
// the frame itself, the payload is the net session change since the last
// accepted flush). It survives coordinator restarts — a flush answered
// with its own ID in ack.Unknown (or a broken connection) triggers
// re-registration on the next beat.
type Agent struct {
	cl       *client
	node     NodeInfo
	interval time.Duration
	load     func() Load

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// lastSent is the active-session count last accepted by the
	// coordinator; the next flush carries the net delta from here. Only
	// the run goroutine touches it.
	lastSent int

	// consecutive heartbeat failures; reset on the first beat that lands.
	missed atomic.Int64

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mBeatFailures *metrics.Counter
	mRejoins      *metrics.Counter
}

// NewAgent creates an agent for the given node. load is polled before
// each heartbeat (nil reports zero load); interval defaults to
// DefaultHeartbeat.
func NewAgent(coordAddr string, node NodeInfo, interval time.Duration, load func() Load) *Agent {
	if interval <= 0 {
		interval = DefaultHeartbeat
	}
	if load == nil {
		load = func() Load { return Load{} }
	}
	// A beat must complete well within one interval, or the detector's
	// deadlines drift; cap the per-call timeout at 2 intervals.
	timeout := 2 * interval
	if timeout < time.Second {
		timeout = time.Second
	}
	return &Agent{
		cl:       newClient(coordAddr, timeout),
		node:     node,
		interval: interval,
		load:     load,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// EnableMetrics instruments the agent: cluster_ctrl_retries_total
// (role="agent") counts transparently retried control calls, the wire_*
// families cover its control connections,
// cluster_heartbeat_failures_total counts beats that failed after
// retries, and cluster_rejoins_total counts re-registrations after the
// coordinator forgot (or declared dead) this node.
func (a *Agent) EnableMetrics(reg *metrics.Registry) {
	a.cl.enableMetrics(reg, "agent")
	a.mBeatFailures = reg.Counter("cluster_heartbeat_failures_total",
		"Heartbeats that failed even after retries.")
	a.mRejoins = reg.Counter("cluster_rejoins_total",
		"Re-registrations after the coordinator lost this node.")
}

// SetRetryPolicy bounds the transparent retries under each control call:
// attempts per call (including the first), backoff between them, and an
// optional shared retry budget.
func (a *Agent) SetRetryPolicy(attempts int, b Backoff, budget *RetryBudget) {
	a.cl.setRetryPolicy(attempts, b, budget)
}

// SetDialer interposes on control-plane dials (fault injection).
func (a *Agent) SetDialer(dial DialFunc) { a.cl.setDialer(dial) }

// Start registers the node synchronously — failing fast if the
// coordinator is unreachable or refuses the registration — then begins
// heartbeating in the background.
func (a *Agent) Start() error {
	if err := a.register(); err != nil {
		return err
	}
	go a.run()
	return nil
}

func (a *Agent) register() error {
	_, err := a.cl.call(func(buf []byte) ([]byte, error) {
		c := wire.NewEncoder(append(buf, ctagRegister))
		a.node.codec(c)
		return c.Bytes(), nil
	})
	return err
}

// jittered draws the next beat delay: interval ± hbJitter.
func (a *Agent) jittered() time.Duration {
	return time.Duration(float64(a.interval) * (1 + hbJitter*(2*rand.Float64()-1)))
}

// run is the heartbeat loop: each beat flushes the coalesced load delta
// on a jittered interval.
func (a *Agent) run() {
	defer close(a.done)
	t := time.NewTimer(a.jittered())
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			a.flush()
			t.Reset(a.jittered())
		}
	}
}

// flush sends one heartbeat and handles the rejoin protocol.
func (a *Agent) flush() {
	cur := a.load().ActiveSessions
	ack, err := a.cl.call(func(buf []byte) ([]byte, error) {
		return appendDeltaBatch(buf, []DeltaEntry{{ID: a.node.ID, Sessions: int32(cur - a.lastSent)}})
	})
	if err != nil {
		// The call layer already retried with backoff; a failure here
		// means the coordinator is unreachable (partition, crash). Keep
		// beating at interval pace — the delta stays accumulated locally,
		// and when the partition heals the next flush carries the whole
		// net change — but log only the first miss of a run so a long
		// partition is one line, not a flood.
		if a.missed.Add(1) == 1 {
			log.Printf("cluster: agent %s: heartbeat: %v", a.node.ID, err)
		}
		a.mBeatFailures.Inc()
		return
	}
	a.missed.Store(0)
	if len(ack.Unknown) > 0 {
		// Coordinator restarted or declared us dead: rejoin. The fresh
		// registration starts from zero load, so the next delta must carry
		// the absolute count.
		if err := a.register(); err != nil {
			log.Printf("cluster: agent %s: re-register: %v", a.node.ID, err)
		} else {
			a.lastSent = 0
			a.mRejoins.Inc()
		}
		return
	}
	a.lastSent = cur
}

// Close stops the heartbeat loop; when deregister is true it also sends a
// best-effort clean deregistration (graceful shutdown) so the coordinator
// fails the node's sessions over immediately instead of waiting out the
// death deadline.
func (a *Agent) Close(deregister bool) {
	a.stopOnce.Do(func() {
		close(a.stop)
		<-a.done
		if deregister {
			if _, err := a.cl.call(func(buf []byte) ([]byte, error) {
				c := wire.NewEncoder(append(buf, ctagDeregister))
				(&nameReq{a.node.ID}).codec(c)
				return c.Bytes(), nil
			}); err != nil {
				log.Printf("cluster: agent %s: deregister: %v", a.node.ID, err)
			}
		}
		a.cl.close()
	})
}

// String implements fmt.Stringer for log lines.
func (a *Agent) String() string {
	return fmt.Sprintf("cluster.Agent(%s → %s)", a.node.ID, a.cl.addr)
}
