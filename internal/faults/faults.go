// Package faults is a deterministic, seeded fault-injection layer for the
// adaptation framework's two deployment planes:
//
//   - the simulated plane, where a Driver applies a scripted Schedule to
//     netem.Links and sandbox.Sandboxes in virtual time (loss, latency
//     spikes, bandwidth dips, partitions, CPU-share steps) so chaos runs
//     and the paper's run-time experiments replay exactly;
//   - the real-TCP plane, where an Injector wraps net.Conn connections and
//     dial calls (drop-to-blackhole, latency, bandwidth dips, connection
//     resets, partitions, paused/slow nodes) so the cluster control plane
//     and the avis data plane can be exercised against the failures their
//     retry and failover paths exist for.
//
// Everything is driven by a Schedule: a sorted list of timed fault events,
// either written explicitly or generated from a seed. Per-message drop
// decisions come from per-connection splitmix streams derived from the
// schedule seed, so the same seed yields the same injected-fault sequence.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tunable/internal/prng"
)

// Kind names one class of injected fault; the value doubles as the metric
// label on faults_injected_total.
type Kind string

// Fault kinds.
const (
	// Drop loses messages with probability Rate on matching connections or
	// links. On a real TCP connection a hit black-holes the connection (the
	// bytes and everything after them vanish until the peer's progress
	// deadline kills the conn) — the stream analogue of packet loss.
	Drop Kind = "drop"
	// Latency adds Delay (plus up to Jitter, deterministically jittered) to
	// every delivery on matching connections or links.
	Latency Kind = "latency"
	// Bandwidth caps matching connections or links to Rate bytes/second
	// for the event's duration (a bandwidth dip).
	Bandwidth Kind = "bandwidth"
	// Reset closes matching connections at the event instant (TCP RST).
	Reset Kind = "reset"
	// Partition makes matching targets unreachable for the duration: new
	// dials fail, established connections stall. Scoping the target label
	// expresses asymmetric partitions (e.g. the coordinator cannot see a
	// node while clients still can).
	Partition Kind = "partition"
	// Pause stalls all I/O on matching targets for the duration, then
	// releases it — a paused (SIGSTOP'd or GC-wedged) node. Recovery needs
	// no reconnect, unlike Drop.
	Pause Kind = "pause"
	// CPU caps matching sandboxes' CPU share at Rate, in (0, 1], for the
	// event's duration — the client CPU drop of the paper's Sections 7.3
	// and 7.4. Only the simulated plane has sandboxes; the Injector
	// ignores it.
	CPU Kind = "cpu"
)

// Event is one scripted fault: a window [At, At+Duration) during which the
// fault is active on targets matching Target.
type Event struct {
	At       time.Duration // offset from schedule start
	Duration time.Duration // window length; 0 only for the instantaneous Reset
	Kind     Kind
	// Target selects which labels the event applies to: a connection or
	// link whose label contains Target as a substring matches; the empty
	// string matches everything. Labels follow a "plane:node" convention
	// ("data:node-b", "ctrl:node-a"), so "node-b" hits both planes of one
	// node and "ctrl:" hits the whole control plane. CPU events match
	// sandbox labels ("client") the same way.
	Target string
	Rate   float64       // Drop: loss probability; Bandwidth: bytes/second; CPU: share
	Delay  time.Duration // Latency: fixed added delay
	Jitter time.Duration // Latency: max extra deterministic jitter per delivery
}

// Matches reports whether the event applies to the given label.
func (e Event) Matches(label string) bool {
	return e.Target == "" || strings.Contains(label, e.Target)
}

// ActiveAt reports whether the event's window covers instant t. Reset
// events are instantaneous and never "active"; they fire exactly once per
// connection (see Injector).
func (e Event) ActiveAt(t time.Duration) bool {
	return e.Kind != Reset && t >= e.At && t < e.At+e.Duration
}

func (e Event) String() string {
	tgt := e.Target
	if tgt == "" {
		tgt = "*"
	}
	switch e.Kind {
	case Drop:
		return fmt.Sprintf("%v+%v drop(%s) p=%.2f", e.At, e.Duration, tgt, e.Rate)
	case Latency:
		return fmt.Sprintf("%v+%v latency(%s) +%v~%v", e.At, e.Duration, tgt, e.Delay, e.Jitter)
	case Bandwidth:
		return fmt.Sprintf("%v+%v bandwidth(%s) %.0fB/s", e.At, e.Duration, tgt, e.Rate)
	case Reset:
		return fmt.Sprintf("%v reset(%s)", e.At, tgt)
	case Partition:
		return fmt.Sprintf("%v+%v partition(%s)", e.At, e.Duration, tgt)
	case Pause:
		return fmt.Sprintf("%v+%v pause(%s)", e.At, e.Duration, tgt)
	case CPU:
		return fmt.Sprintf("%v+%v cpu(%s) share=%.2f", e.At, e.Duration, tgt, e.Rate)
	}
	return fmt.Sprintf("%v+%v %s(%s)", e.At, e.Duration, e.Kind, tgt)
}

// Schedule is a scripted chaos run: a seed (feeding the per-connection
// drop-decision streams) plus a time-sorted list of events.
type Schedule struct {
	Seed   uint64
	Events []Event
}

// NewSchedule sorts events into canonical order (by At, then by the order
// given) and returns the schedule.
func NewSchedule(seed uint64, events ...Event) Schedule {
	s := Schedule{Seed: seed, Events: append([]Event(nil), events...)}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s
}

// Validate rejects malformed events: negative times, out-of-range rates,
// and windows of zero length, which no plane would ever apply.
func (s Schedule) Validate() error {
	for i, e := range s.Events {
		if e.At < 0 || e.Duration < 0 || e.Delay < 0 || e.Jitter < 0 {
			return fmt.Errorf("faults: event %d (%s): negative time", i, e)
		}
		if e.Kind != Reset && e.Duration == 0 {
			return fmt.Errorf("faults: event %d (%s): zero-length window", i, e)
		}
		switch e.Kind {
		case Drop:
			if e.Rate < 0 || e.Rate > 1 {
				return fmt.Errorf("faults: event %d: drop rate %g outside [0,1]", i, e.Rate)
			}
		case Bandwidth:
			if e.Rate <= 0 {
				return fmt.Errorf("faults: event %d: bandwidth %g must be > 0", i, e.Rate)
			}
		case CPU:
			if e.Rate <= 0 || e.Rate > 1 {
				return fmt.Errorf("faults: event %d: CPU share %g outside (0,1]", i, e.Rate)
			}
		case Latency, Reset, Partition, Pause:
		default:
			return fmt.Errorf("faults: event %d: unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

// condition is the aggregate fault state for one label at one instant:
// both planes read it, the Injector directly and the Driver on top of its
// baselines.
type condition struct {
	dropRate float64
	delay    time.Duration
	jitter   time.Duration
	bw       float64 // lowest open bandwidth cap; 0 = uncapped
	share    float64 // lowest open CPU share; 0 = none open
	stalled  bool    // partition or pause active
	stallEnd time.Duration
	partit   bool // the stall is a partition (dials fail too)
}

// conditionAt folds every window matching label and open at t into one
// condition: the highest loss, the summed delays, the lowest bandwidth
// and CPU share. Each of these is independent of event order, and Validate
// refuses a zero bandwidth or share, so 0 can mean "none open". Before the
// clock starts (t < 0) no window is open.
func (s Schedule) conditionAt(label string, t time.Duration) condition {
	var c condition
	for _, e := range s.Events {
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
		case CPU:
			if c.share == 0 || e.Rate < c.share {
				c.share = e.Rate
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

// Horizon returns the end of the last event window.
func (s Schedule) Horizon() time.Duration {
	var h time.Duration
	for _, e := range s.Events {
		if end := e.At + e.Duration; end > h {
			h = end
		}
	}
	return h
}

func (s Schedule) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return fmt.Sprintf("seed=%d [%s]", s.Seed, strings.Join(parts, "; "))
}

// GenProfile tunes Generate: how many events of each kind to script across
// the horizon and their magnitudes.
type GenProfile struct {
	Drops      int           // drop windows
	DropRate   float64       // loss probability per window (default 0.1)
	Latencies  int           // latency-spike windows
	MaxDelay   time.Duration // spike magnitude bound (default 50ms)
	Dips       int           // bandwidth-dip windows
	DipFloor   float64       // lowest dip bandwidth in bytes/sec (default 64 KiB/s)
	Resets     int           // instantaneous connection resets
	Partitions int           // partition windows
	Pauses     int           // pause windows
}

// Generate builds a reproducible random schedule: the same (seed, horizon,
// targets, profile) always yields the same events. Targets scope the
// events; an empty list scripts everything against the match-all target.
func Generate(seed uint64, horizon time.Duration, targets []string, prof GenProfile) Schedule {
	if len(targets) == 0 {
		targets = []string{""}
	}
	if prof.DropRate <= 0 {
		prof.DropRate = 0.1
	}
	if prof.MaxDelay <= 0 {
		prof.MaxDelay = 50 * time.Millisecond
	}
	if prof.DipFloor <= 0 {
		prof.DipFloor = 64 << 10
	}
	rng := prng.New(seed)
	pick := func() string { return targets[int(rng.Next()%uint64(len(targets)))] }
	at := func() time.Duration { return time.Duration(rng.Float64() * float64(horizon) * 0.8) }
	dur := func() time.Duration {
		return time.Duration((0.05 + 0.15*rng.Float64()) * float64(horizon))
	}
	var evs []Event
	for i := 0; i < prof.Drops; i++ {
		evs = append(evs, Event{At: at(), Duration: dur(), Kind: Drop, Target: pick(), Rate: prof.DropRate})
	}
	for i := 0; i < prof.Latencies; i++ {
		d := time.Duration(rng.Float64() * float64(prof.MaxDelay))
		evs = append(evs, Event{At: at(), Duration: dur(), Kind: Latency, Target: pick(), Delay: d, Jitter: d / 2})
	}
	for i := 0; i < prof.Dips; i++ {
		bw := prof.DipFloor * (1 + 3*rng.Float64())
		evs = append(evs, Event{At: at(), Duration: dur(), Kind: Bandwidth, Target: pick(), Rate: bw})
	}
	for i := 0; i < prof.Resets; i++ {
		evs = append(evs, Event{At: at(), Kind: Reset, Target: pick()})
	}
	for i := 0; i < prof.Partitions; i++ {
		evs = append(evs, Event{At: at(), Duration: dur(), Kind: Partition, Target: pick()})
	}
	for i := 0; i < prof.Pauses; i++ {
		evs = append(evs, Event{At: at(), Duration: dur(), Kind: Pause, Target: pick()})
	}
	return NewSchedule(seed, evs...)
}

// Injected is one fault actually applied to a target: the reproducible
// fault log entry exposed via Injector.Log and Driver.Log.
type Injected struct {
	At     time.Duration
	Kind   Kind
	Target string
	Detail string
}

func (i Injected) String() string {
	return fmt.Sprintf("%v %s(%s) %s", i.At, i.Kind, i.Target, i.Detail)
}
