// Package monitor implements the paper's monitoring infrastructure
// (Section 6.1): an application-specific monitoring agent that runs
// periodically (every 10 ms), processes raw observations within a history
// window, and estimates the fraction of each resource actually available
// to the application — without ever reading the allocation settings
// directly. Upon detecting that an estimate has left the validity range of
// the currently active configuration, it notifies the resource scheduler
// (and peer agents in remote instances of the application).
package monitor

import (
	"fmt"
	"math"
	"time"

	"tunable/internal/metrics"
	"tunable/internal/resource"
	"tunable/internal/vtime"
)

// DefaultPeriod is the sampling period ("runs periodically, every 10 ms").
const DefaultPeriod = 10 * time.Millisecond

// DefaultWindow is the history window over which raw samples are averaged.
const DefaultWindow = 500 * time.Millisecond

// tolerance is the relative slack applied to validity-range edges:
// estimates within it of a band edge count as inside the band.
const tolerance = 0.02

// DefaultHysteresis is the number of consecutive out-of-range windowed
// estimates required before a trigger fires; it suppresses the useless
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

// Probe produces instantaneous observations of one resource on one
// component by watching application activity. Sample reports ok=false when
// there was no activity to observe in the interval (the agent then retains
// its previous estimate).
type Probe interface {
	Component() string
	Kind() resource.Kind
	Sample(now time.Duration) (value float64, ok bool)
}

// sample is one windowed observation.
type sample struct {
	at time.Duration
	v  float64
}

// Trigger reports that a windowed estimate left its validity range.
type Trigger struct {
	At        time.Duration
	Component string
	Kind      resource.Kind
	Value     float64
	Lo, Hi    float64
}

func (t Trigger) String() string {
	return fmt.Sprintf("t=%v %s.%s=%.4g outside [%.4g,%.4g]",
		t.At, t.Component, t.Kind, t.Value, t.Lo, t.Hi)
}

// EstimateMsg carries one agent's resource estimates to peer agents in
// remote instances of the application.
type EstimateMsg struct {
	From      string
	At        time.Duration
	Estimates map[string]resource.Vector // component → estimates
}

// validRange is the band within which the current configuration remains
// appropriate.
type validRange struct {
	lo, hi float64
	count  int // consecutive violations observed
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

	probes    []keyedProbe
	history   map[string][]sample
	ewma      map[string]float64
	estimates map[string]resource.Vector // component → smoothed estimates
	ranges    map[string]*validRange
	lastSeen  map[string]time.Duration // key → instant of last real sample
	lastGood  map[string]float64       // key → last estimate backed by a real sample
	degraded  map[string]bool          // keys currently in degraded mode

	triggers *vtime.Chan[Trigger]
	peers    []*vtime.Chan[EstimateMsg]
	inbox    *vtime.Chan[EstimateMsg]
	remote   map[string]resource.Vector // estimates received from peers

	stop    *vtime.Event
	samples int64

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	reg         *metrics.Registry
	mSamples    *metrics.Counter
	mTriggers   *metrics.Counter
	mOutOfBand  *metrics.Histogram
	mStaleRound *metrics.Counter
	mDegraded   *metrics.Gauge
	mEstimates  map[string]*metrics.Gauge
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
// trusted indefinitely, and validity-range checks keep running against
// the decayed value so the scheduler still reacts. Zero disables.
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
		history:       make(map[string][]sample),
		ewma:          make(map[string]float64),
		estimates:     make(map[string]resource.Vector),
		ranges:        make(map[string]*validRange),
		lastSeen:      make(map[string]time.Duration),
		lastGood:      make(map[string]float64),
		degraded:      make(map[string]bool),
		remote:        make(map[string]resource.Vector),
		triggers:      vtime.NewNamedChan[Trigger](sim, 64, name+".triggers"),
		inbox:         vtime.NewNamedChan[EstimateMsg](sim, 64, name+".inbox"),
		stop:          vtime.NewEvent(sim, name+".stop"),
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// EnableMetrics instruments the agent. Metric families (all labelled by
// agent): monitor_samples_total, monitor_triggers_total,
// monitor_out_of_band_error (distance of a triggering estimate beyond its
// validity band, i.e. how wrong the active configuration's assumption had
// become before detection), and monitor_estimate gauges per probed
// component.resource key.
func (a *Agent) EnableMetrics(reg *metrics.Registry) {
	a.reg = reg
	lbl := metrics.L("agent", a.name)
	a.mSamples = reg.Counter("monitor_samples_total", "Sampling rounds completed.", lbl)
	a.mTriggers = reg.Counter("monitor_triggers_total", "Out-of-range triggers fired.", lbl)
	a.mOutOfBand = reg.Histogram("monitor_out_of_band_error",
		"Distance of a triggering estimate beyond its validity band.", lbl)
	a.mStaleRound = reg.Counter("monitor_stale_rounds_total",
		"Sampling rounds in which a probe's estimate was decayed for staleness.", lbl)
	a.mDegraded = reg.Gauge("monitor_degraded",
		"Probe keys currently in degraded (stale-sample) mode.", lbl)
	a.mEstimates = make(map[string]*metrics.Gauge)
}

// estimateGauge returns (lazily creating) the gauge for one probe key.
func (a *Agent) estimateGauge(key string) *metrics.Gauge {
	if a.reg == nil {
		return nil
	}
	if g, ok := a.mEstimates[key]; ok {
		return g
	}
	g := a.reg.Gauge("monitor_estimate", "Smoothed resource-availability estimate.",
		metrics.L("agent", a.name), metrics.L("key", key))
	a.mEstimates[key] = g
	return g
}

// keyedProbe is a probe with its "component.kind" key, built once.
type keyedProbe struct {
	Probe
	key string
}

// AddProbe registers a probe. Probes are sampled in registration order.
func (a *Agent) AddProbe(p Probe) {
	a.probes = append(a.probes, keyedProbe{p, p.Component() + "." + string(p.Kind())})
}

// Triggers returns the channel on which out-of-range notifications are
// delivered.
func (a *Agent) Triggers() *vtime.Chan[Trigger] { return a.triggers }

// Inbox returns the channel on which this agent receives peer estimates.
func (a *Agent) Inbox() *vtime.Chan[EstimateMsg] { return a.inbox }

// AddPeer registers a remote agent's inbox; estimates are pushed to peers
// whenever a trigger fires (the paper communicates "only when resource
// availability falls out of a range").
func (a *Agent) AddPeer(ch *vtime.Chan[EstimateMsg]) { a.peers = append(a.peers, ch) }

// SetValidRange declares the band of resource values within which the
// active configuration remains appropriate; estimates outside it fire a
// trigger. Passing lo > hi removes the range.
func (a *Agent) SetValidRange(component string, kind resource.Kind, lo, hi float64) {
	k := component + "." + string(kind)
	if lo > hi {
		delete(a.ranges, k)
		return
	}
	a.ranges[k] = &validRange{lo: lo, hi: hi}
}

// ClearRanges removes all validity ranges (used while a reconfiguration is
// in flight).
func (a *Agent) ClearRanges() {
	a.ranges = make(map[string]*validRange)
}

// Estimates returns the current smoothed estimates per component,
// including estimates received from peers for components this agent does
// not probe locally.
func (a *Agent) Estimates() map[string]resource.Vector {
	out := make(map[string]resource.Vector, len(a.estimates)+len(a.remote))
	for c, v := range a.remote {
		out[c] = v.Clone()
	}
	for c, v := range a.estimates {
		merged, ok := out[c]
		if !ok {
			out[c] = v.Clone()
			continue
		}
		for k, x := range v {
			merged[k] = x
		}
	}
	return out
}

// Snapshot flattens the estimates into a single resource vector, assuming
// at most one probed component per resource kind (the shape the
// performance database is indexed by: client CPU share, link bandwidth).
func (a *Agent) Snapshot() resource.Vector {
	out := resource.Vector{}
	for _, v := range a.Estimates() {
		for k, x := range v {
			out[k] = x
		}
	}
	return out
}

// SampleCount returns the number of sampling rounds completed.
func (a *Agent) SampleCount() int64 { return a.samples }

// Stop terminates the agent's process after the current round.
func (a *Agent) Stop() { a.stop.Set() }

// Start spawns the agent's periodic sampling process.
func (a *Agent) Start() {
	a.sim.Spawn(a.name, func(p *vtime.Proc) {
		for !a.stop.IsSet() {
			p.Sleep(a.period)
			a.round(p.Now())
			a.drainInbox(p.Now())
		}
	})
}

// RunOnce performs a single sampling round at the given instant; exposed
// for tests and for embedding the agent in an existing process loop.
func (a *Agent) RunOnce(now time.Duration) { a.round(now) }

func (a *Agent) round(now time.Duration) {
	a.samples++
	a.mSamples.Inc()
	for _, pr := range a.probes {
		key := pr.key
		v, ok := pr.Sample(now)
		if !ok {
			a.maybeDegrade(now, pr.Probe, key)
			continue
		}
		a.lastSeen[key] = now
		if a.degraded[key] {
			delete(a.degraded, key)
			a.mDegraded.Set(float64(len(a.degraded)))
		}
		var est float64
		if a.smoothing == EWMA {
			if prev, ok := a.ewma[key]; ok {
				est = a.alpha*v + (1-a.alpha)*prev
			} else {
				est = v
			}
			a.ewma[key] = est
		} else {
			h := append(a.history[key], sample{at: now, v: v})
			// Discard samples older than the window.
			cut := 0
			for cut < len(h) && h[cut].at < now-a.window {
				cut++
			}
			h = append(h[:0], h[cut:]...) // in place, so the window's array is reused
			a.history[key] = h
			// Windowed mean is the smoothed estimate.
			var sum float64
			for _, s := range h {
				sum += s.v
			}
			est = sum / float64(len(h))
		}
		comp := pr.Component()
		if a.estimates[comp] == nil {
			a.estimates[comp] = resource.Vector{}
		}
		a.estimates[comp][pr.Kind()] = est
		a.lastGood[key] = est
		a.estimateGauge(key).Set(est)
		a.checkRange(now, key, comp, pr.Kind(), est)
	}
}

// maybeDegrade handles a probe that produced no sample this round. With
// staleness detection off (the default) the previous estimate is simply
// retained, as before. With it on, once the silence exceeds staleAfter
// the estimate is decayed geometrically toward a floor — the conservative
// reading of silence is "the resource is short", because every failure the
// fault layer injects (partition, paused node, black-holed link) looks
// like silence — and validity-range checks keep running on the decayed
// value so the scheduler reconfigures instead of waiting on a dead probe.
func (a *Agent) maybeDegrade(now time.Duration, pr Probe, key string) {
	if a.staleAfter <= 0 {
		return
	}
	seen, sampled := a.lastSeen[key]
	if !sampled || now-seen <= a.staleAfter {
		return
	}
	comp := pr.Component()
	est, ok := a.estimates[comp][pr.Kind()]
	if !ok {
		return
	}
	if !a.degraded[key] {
		a.degraded[key] = true
		a.mDegraded.Set(float64(len(a.degraded)))
	}
	a.mStaleRound.Inc()
	est *= a.degradeFactor
	if floor := a.degradeFloor * a.lastGood[key]; est < floor {
		est = floor
	}
	a.estimates[comp][pr.Kind()] = est
	if a.smoothing == EWMA {
		// Seed the EWMA with the decayed value so recovery does not snap
		// back from the pre-outage level.
		a.ewma[key] = est
	}
	a.estimateGauge(key).Set(est)
	a.checkRange(now, key, comp, pr.Kind(), est)
}

// Degraded reports whether any probe is currently in degraded
// (stale-sample) mode, and how many.
func (a *Agent) Degraded() int { return len(a.degraded) }

func (a *Agent) checkRange(now time.Duration, key, comp string, kind resource.Kind, est float64) {
	r, ok := a.ranges[key]
	if !ok {
		return
	}
	// A small relative tolerance keeps estimates sitting exactly on a
	// band edge (within measurement noise) from producing trigger storms.
	slack := tolerance * math.Max(math.Abs(est), 1e-12)
	if est >= r.lo-slack && est <= r.hi+slack {
		r.count = 0
		return
	}
	r.count++
	if r.count < a.hysteresis {
		return
	}
	r.count = 0
	trig := Trigger{At: now, Component: comp, Kind: kind, Value: est, Lo: r.lo, Hi: r.hi}
	a.mTriggers.Inc()
	if a.mOutOfBand != nil {
		switch {
		case est < r.lo:
			a.mOutOfBand.Observe(r.lo - est)
		case est > r.hi:
			a.mOutOfBand.Observe(est - r.hi)
		}
	}
	// Non-blocking: if the scheduler is behind, the newest trigger matters
	// no more than the one already queued.
	a.triggers.TrySend(trig)
	a.pushToPeers(now)
}

func (a *Agent) pushToPeers(now time.Duration) {
	if len(a.peers) == 0 {
		return
	}
	msg := EstimateMsg{From: a.name, At: now, Estimates: a.Estimates()}
	for _, peer := range a.peers {
		peer.TrySend(msg)
	}
}

func (a *Agent) drainInbox(now time.Duration) {
	for {
		msg, ok, ready := a.inbox.TryRecv()
		if !ready || !ok {
			return
		}
		for comp, v := range msg.Estimates {
			if _, local := a.estimates[comp]; local {
				continue // local observations win
			}
			a.remote[comp] = v.Clone()
			// Remote estimates participate in this agent's validity-range
			// checks, so a peer's observation of a degraded resource can
			// trigger this agent's scheduler.
			for kind, est := range v {
				a.checkRange(now, comp+"."+string(kind), comp, kind, est)
			}
		}
	}
}
