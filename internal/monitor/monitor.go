// Package monitor implements the paper's monitoring infrastructure
// (Section 6.1): an application-specific monitoring agent that runs
// periodically (every 10 ms), processes raw observations within a history
// window, and estimates the fraction of each resource actually available
// to the application — without ever reading the allocation settings
// directly. Its joint estimate is one resource vector keyed by kind: each
// probe's estimate under the probe's kind, and peers' estimates for the
// kinds no local probe has measured. Upon detecting that the joint
// estimate has left the region in which the currently active configuration
// is valid, it notifies the resource scheduler (and peer agents in remote
// instances of the application). The region is armed by the framework as
// a membership test (Arm); the agent re-evaluates it only once an estimate
// has moved.
package monitor

import (
	"fmt"
	"math"
	"time"

	"tunable/internal/resource"
	"tunable/internal/vtime"
)

// DefaultPeriod is the sampling period ("runs periodically, every 10 ms").
const DefaultPeriod = 10 * time.Millisecond

// DefaultWindow is the history window over which raw samples are averaged.
const DefaultWindow = 500 * time.Millisecond

// tolerance is the relative movement of an estimate, since the armed
// region was last evaluated, that makes the agent evaluate it again;
// smaller moves keep the last verdict, so measurement noise around a
// steady value costs no evaluations.
const tolerance = 0.02

// DefaultHysteresis is the number of consecutive rounds outside the armed
// region required before a trigger fires; it suppresses the useless
// reconfigurations Section 7.5 warns about.
const DefaultHysteresis = 3

// Smoothing selects how raw probe samples become estimates.
type Smoothing int

// Smoothing modes.
const (
	// WindowMean averages all samples inside the history window (the
	// paper's "processes raw data within a history window").
	WindowMean Smoothing = iota
	// EWMA applies an exponentially weighted moving average; cheaper and
	// more responsive, but with a long noise tail (used by the smoothing
	// ablation).
	EWMA
)

// Probe produces instantaneous observations of one resource kind by
// watching application activity. Sample reports ok=false when there was no
// activity to observe in the interval (the agent then retains its previous
// estimate).
type Probe interface {
	Kind() resource.Kind
	Sample(now time.Duration) (value float64, ok bool)
}

// sample is one windowed observation.
type sample struct {
	at time.Duration
	v  float64
}

// Trigger asks the scheduler to reconsider: at instant At, for Reason.
// A trigger the agent fires carries the joint estimate (Snapshot) that
// left the armed region; one raised outside the agent (a retry, a refined
// model) may carry none.
type Trigger struct {
	At       time.Duration
	Estimate resource.Vector
	Reason   string
}

// leftRegion is the Reason of every trigger the agent itself fires.
const leftRegion = "estimate left the armed region"

func (t Trigger) String() string {
	if len(t.Estimate) == 0 {
		return fmt.Sprintf("t=%v %s", t.At, t.Reason)
	}
	return fmt.Sprintf("t=%v %s: %s", t.At, t.Reason, t.Estimate)
}

// EstimateMsg carries one agent's joint estimate to peer agents in remote
// instances of the application.
type EstimateMsg struct {
	From     string
	At       time.Duration
	Estimate resource.Vector
}

// Agent is the application-specific monitoring agent.
type Agent struct {
	name       string
	sim        *vtime.Sim
	period     time.Duration
	window     time.Duration
	hysteresis int
	smoothing  Smoothing
	alpha      float64

	// stale-sample degradation (disabled unless withStaleAfter ran): when a
	// probe stops producing samples — the fault layer's partitions and
	// paused nodes do exactly this — the agent must not stall on, or keep
	// trusting, its last optimistic estimate forever.
	staleAfter    time.Duration
	degradeFactor float64
	degradeFloor  float64

	probes []slot
	// estimate is the joint estimate, one value per resource kind: each
	// probe's estimate under its kind, and a peer's for the kinds no local
	// probe has measured yet.
	estimate resource.Vector

	// the armed region: valid is the membership test (nil when disarmed),
	// inside its last verdict, recheck set when the next round must
	// evaluate it again, outside the consecutive rounds spent outside.
	valid   func(resource.Vector) bool
	inside  bool
	recheck bool
	outside int

	triggers *vtime.Chan[Trigger]
	peers    []*vtime.Chan[EstimateMsg]
	inbox    *vtime.Chan[EstimateMsg]

	stop    *vtime.Event
	samples int64
}

// Option customizes an Agent.
type Option func(*Agent)

// WithPeriod overrides the sampling period.
func WithPeriod(d time.Duration) Option { return func(a *Agent) { a.period = d } }

// WithWindow overrides the history window.
func WithWindow(d time.Duration) Option { return func(a *Agent) { a.window = d } }

// WithSmoothing selects the estimator; alpha is the EWMA weight of the
// newest sample (ignored for WindowMean).
func WithSmoothing(mode Smoothing, alpha float64) Option {
	return func(a *Agent) {
		a.smoothing = mode
		if alpha > 0 && alpha <= 1 {
			a.alpha = alpha
		}
	}
}

// withStaleAfter enables degraded mode: when a probe produces no sample
// for longer than d, its estimate is decayed conservatively each round
// (assume the silent resource is short, not fine) instead of being
// trusted indefinitely, and the armed region is judged on the decayed
// value so the scheduler still reacts. Zero disables.
func withStaleAfter(d time.Duration) Option {
	return func(a *Agent) { a.staleAfter = d }
}

// withDegrade tunes degraded mode: each stale round multiplies the
// estimate by factor (default 0.9), never dropping below floor × the last
// sample-backed estimate (default 0.25).
func withDegrade(factor, floor float64) Option {
	return func(a *Agent) {
		if factor > 0 && factor < 1 {
			a.degradeFactor = factor
		}
		if floor >= 0 && floor <= 1 {
			a.degradeFloor = floor
		}
	}
}

// WithHysteresis overrides the consecutive-violation count needed to fire
// a trigger (1 fires immediately; larger values damp reconfiguration
// thrashing).
func WithHysteresis(n int) Option {
	return func(a *Agent) {
		if n < 1 {
			n = 1
		}
		a.hysteresis = n
	}
}

// New creates an agent. Triggers are delivered on Triggers(); the caller
// (normally the resource scheduler's run loop) drains that channel.
func New(sim *vtime.Sim, name string, opts ...Option) *Agent {
	a := &Agent{
		name:          name,
		sim:           sim,
		period:        DefaultPeriod,
		window:        DefaultWindow,
		hysteresis:    DefaultHysteresis,
		alpha:         0.1,
		degradeFactor: 0.9,
		degradeFloor:  0.25,
		estimate:      resource.Vector{},
		triggers:      vtime.NewNamedChan[Trigger](sim, 64, name+".triggers"),
		inbox:         vtime.NewNamedChan[EstimateMsg](sim, 64, name+".inbox"),
		stop:          vtime.NewEvent(sim, name+".stop"),
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// slot is a probe and what the agent keeps of it.
type slot struct {
	Probe
	kind     resource.Kind
	window   []sample      // the samples inside the history window
	est      float64       // the estimate, also the EWMA state; valid once has
	has      bool          // a sample has been taken
	seen     time.Duration // instant of the last real sample
	good     float64       // the last estimate backed by a real sample
	degraded bool          // in degraded (stale-sample) mode
	judged   float64       // est when the armed region was last evaluated (NaN if none)
}

// AddProbe registers a probe. Probes are sampled in registration order.
func (a *Agent) AddProbe(p Probe) {
	a.probes = append(a.probes, slot{Probe: p, kind: p.Kind(), judged: math.NaN()})
}

// Triggers returns the channel on which region-exit notifications are
// delivered.
func (a *Agent) Triggers() *vtime.Chan[Trigger] { return a.triggers }

// Inbox returns the channel on which this agent receives peer estimates.
func (a *Agent) Inbox() *vtime.Chan[EstimateMsg] { return a.inbox }

// AddPeer registers a remote agent's inbox; estimates are pushed to peers
// whenever a trigger fires (the paper communicates "only when resource
// availability falls out of a range").
func (a *Agent) AddPeer(ch *vtime.Chan[EstimateMsg]) { a.peers = append(a.peers, ch) }

// Arm sets the region in which the active configuration is valid: valid
// reports whether a joint estimate (what Snapshot returns) lies inside it.
// It is handed the agent's own vector, so it must neither keep nor modify
// it. The next round evaluates it; later rounds evaluate it again only
// once some estimate has moved by more than tolerance since, and keep the
// last verdict otherwise. hysteresis consecutive rounds outside fire a
// trigger. Arm(nil) disarms the agent, as while a reconfiguration is in
// flight.
func (a *Agent) Arm(valid func(resource.Vector) bool) {
	a.valid = valid
	a.recheck = true
	a.outside = 0
}

// Snapshot returns a copy of the joint estimate: one value per resource
// kind (the shape the performance database is indexed by: client CPU
// share, link bandwidth), including the kinds only peers have reported.
func (a *Agent) Snapshot() resource.Vector { return a.estimate.Clone() }

// SampleCount returns the number of sampling rounds completed.
func (a *Agent) SampleCount() int64 { return a.samples }

// Stop terminates the agent's process after the current round.
func (a *Agent) Stop() { a.stop.Set() }

// Start spawns the agent's periodic sampling process.
func (a *Agent) Start() {
	a.sim.Spawn(a.name, func(p *vtime.Proc) {
		for !a.stop.IsSet() {
			p.Sleep(a.period)
			a.drainInbox()
			a.round(p.Now())
		}
	})
}

// RunOnce performs a single sampling round at the given instant; exposed
// for tests and for embedding the agent in an existing process loop.
func (a *Agent) RunOnce(now time.Duration) { a.round(now) }

func (a *Agent) round(now time.Duration) {
	a.samples++
	for i := range a.probes {
		s := &a.probes[i]
		v, ok := s.Sample(now)
		if !ok {
			a.maybeDegrade(now, s)
			continue
		}
		s.seen = now
		s.degraded = false
		est := v
		if a.smoothing == EWMA {
			if s.has {
				est = a.alpha*v + (1-a.alpha)*s.est
			}
		} else {
			h := append(s.window, sample{at: now, v: v})
			// Discard samples older than the window.
			cut := 0
			for cut < len(h) && h[cut].at < now-a.window {
				cut++
			}
			s.window = append(h[:0], h[cut:]...) // in place, so the window's array is reused
			est = mean(s.window)
		}
		s.good = est
		a.record(s, est)
	}
	a.check(now)
}

// record publishes a probe's new estimate under its kind and asks for the
// armed region to be evaluated again if it has moved by more than
// tolerance since the last evaluation.
func (a *Agent) record(s *slot, est float64) {
	s.est, s.has = est, true
	a.estimate[s.kind] = est
	if !(math.Abs(est-s.judged) <= tolerance*math.Abs(s.judged)) {
		a.recheck = true
	}
}

// maybeDegrade handles a probe that produced no sample this round. With
// staleness detection off (the default) the previous estimate is simply
// retained, as before. With it on, once the silence exceeds staleAfter
// the estimate is decayed geometrically toward a floor — the conservative
// reading of silence is "the resource is short", because every failure the
// fault layer injects (partition, paused node, black-holed link) looks
// like silence — and the armed region is judged on the decayed value so
// the scheduler reconfigures instead of waiting on a dead probe.
//
// The decayed value is the slot's estimate, so under EWMA it also seeds
// the average and recovery does not snap back from the pre-outage level.
func (a *Agent) maybeDegrade(now time.Duration, s *slot) {
	if a.staleAfter <= 0 || !s.has || now-s.seen <= a.staleAfter {
		return
	}
	s.degraded = true
	est := s.est * a.degradeFactor
	if floor := a.degradeFloor * s.good; est < floor {
		est = floor
	}
	a.record(s, est)
}

// Degraded reports whether any probe is currently in degraded
// (stale-sample) mode, and how many.
func (a *Agent) Degraded() int {
	n := 0
	for i := range a.probes {
		if a.probes[i].degraded {
			n++
		}
	}
	return n
}

// check judges the round's estimates against the armed region: it
// evaluates the region when asked to (recheck) and otherwise keeps the
// last verdict, and fires after hysteresis consecutive rounds outside.
func (a *Agent) check(now time.Duration) {
	if a.valid == nil {
		return
	}
	if a.recheck {
		a.recheck = false
		for i := range a.probes {
			s := &a.probes[i]
			s.judged = math.NaN()
			if s.has {
				s.judged = s.est
			}
		}
		a.inside = a.valid(a.estimate)
	}
	if a.inside {
		a.outside = 0
		return
	}
	a.outside++
	if a.outside < a.hysteresis {
		return
	}
	a.outside = 0
	a.restartAtChange()
	// Non-blocking: if the scheduler is behind, the newest trigger matters
	// no more than the one already queued.
	a.triggers.TrySend(Trigger{At: now, Estimate: a.Snapshot(), Reason: leftRegion})
	a.pushToPeers(now)
}

// restartAtChange restarts each windowed estimate at the change point as
// the trigger fires: the window keeps only the samples of the rounds
// spent outside the region (the last hysteresis ones), so the value
// handed to the scheduler is the level after the change, not a blend of
// the levels before and after it. The EWMA estimator, and a degraded
// probe's decayed estimate, are left as they are.
func (a *Agent) restartAtChange() {
	if a.smoothing == EWMA {
		return
	}
	for i := range a.probes {
		s := &a.probes[i]
		if len(s.window) == 0 || s.degraded {
			continue
		}
		s.window = append(s.window[:0], s.window[max(0, len(s.window)-a.hysteresis):]...)
		s.good = mean(s.window)
		a.record(s, s.good)
	}
}

// mean is the windowed estimate: the mean of the samples in the window.
func mean(h []sample) float64 {
	var sum float64
	for _, s := range h {
		sum += s.v
	}
	return sum / float64(len(h))
}

func (a *Agent) pushToPeers(now time.Duration) {
	if len(a.peers) == 0 {
		return
	}
	msg := EstimateMsg{From: a.name, At: now, Estimate: a.Snapshot()}
	for _, peer := range a.peers {
		peer.TrySend(msg)
	}
}

// drainInbox takes in peer estimates for the kinds no local probe has
// measured (local observations win). They are part of the joint estimate
// the armed region is judged on, so a peer's observation of a degraded
// resource can trigger this agent's scheduler: each one taken in makes the
// next round evaluate the region again.
func (a *Agent) drainInbox() {
	for {
		msg, ok, ready := a.inbox.TryRecv()
		if !ready || !ok {
			return
		}
		for k, x := range msg.Estimate {
			if a.measures(k) {
				continue
			}
			a.estimate[k] = x
			a.recheck = true
		}
	}
}

// measures reports whether a local probe holds an estimate of kind k.
func (a *Agent) measures(k resource.Kind) bool {
	for i := range a.probes {
		if s := &a.probes[i]; s.kind == k && s.has {
			return true
		}
	}
	return false
}
