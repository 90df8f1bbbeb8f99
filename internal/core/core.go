// Package core assembles the paper's adaptation framework (Figure 1): the
// resource scheduler (built by the caller over the tunability
// specification, the performance database and the user's preferences),
// the monitoring agents, and the steering agent, wired into the run-time
// loop that (1) detects when the active configuration no longer
// satisfies user preferences, (2) selects a replacement by correlating
// observed resource characteristics with the performance database, and
// (3) steers the application onto it at the next transition point.
//
// The region the monitoring agents watch is the decision itself: after
// every decision the framework arms them with "Select, at this estimate,
// still picks the active configuration", so an agent fires exactly when
// the scheduler would now choose differently. Decide is the one decision
// pass: Start's loop calls it at the monitor's estimate, and the caller of
// a framework without a monitor (a mix session's retuner) calls it itself.
package core

import (
	"fmt"
	"time"

	"tunable/internal/monitor"
	"tunable/internal/resource"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
	"tunable/internal/steering"
	"tunable/internal/vtime"
)

// Config configures a Framework.
type Config struct {
	// Scheduler makes every decision. The caller builds it over the
	// application, its preferences and the performance model (profiled
	// offline or refined live by perfstore; the loop is the same over
	// either), and may share it with other frameworks of the application.
	Scheduler *scheduler.Scheduler
	// Monitor is optional: without one there is no loop and no armed
	// region, and the framework decides only when Decide is called.
	Monitor  *monitor.Agent
	Steering *steering.Agent
	// RemoteAgents are monitoring agents in remote instances of the
	// application (e.g. the server side). The framework arms them with the
	// main agent's region; each judges it on what it observes itself, so
	// it decides alone and pushes its estimates to the main agent only on
	// leaving the region, where they join the main agent's own judgement
	// (Section 6.1's inter-monitor communication).
	RemoteAgents []*monitor.Agent
}

// retryInterval is how long the framework waits before reconsidering
// when no configuration is feasible.
const retryInterval = 5 * time.Second

// EventKind classifies framework log entries.
type EventKind string

// Event kinds.
const (
	EventTrigger    EventKind = "trigger"
	EventDecision   EventKind = "decision"
	EventSwitch     EventKind = "switch"
	EventReject     EventKind = "reject"
	EventNoFeasible EventKind = "no-feasible"
	EventSteady     EventKind = "steady"
)

// Event is one entry in the decision log, sharing no vector with the
// framework's caller; Detail renders it.
type Event struct {
	At        time.Duration
	Kind      EventKind
	From, To  spec.Config     // a decision's or a switch's (From nil: initial); a steady pass's To
	Pref      string          // a decision's preference
	Predicted spec.Metrics    // the model's prediction for a decision's To
	Estimate  resource.Vector // what a decision, steady or no-feasible pass was made at
	Trigger   monitor.Trigger // a trigger event's trigger
	Ack       steering.Ack    // a reject event's acknowledgement
}

// Detail renders the event as the decision log prints it.
func (e Event) Detail() string {
	switch e.Kind {
	case EventTrigger:
		return e.Trigger.String()
	case EventDecision:
		if e.From == nil {
			return fmt.Sprintf("initial %s (pref %q)", e.To.Key(), e.Pref)
		}
		return fmt.Sprintf("%s -> %s (pref %q, predicted %v)",
			e.From.Key(), e.To.Key(), e.Pref, map[string]float64(e.Predicted))
	case EventSwitch:
		return e.From.Key() + " -> " + e.To.Key()
	case EventReject:
		return fmt.Sprintf("seq %d: %s", e.Ack.Seq, e.Ack.Reason)
	case EventNoFeasible:
		return fmt.Sprintf("at %s", e.Estimate)
	case EventSteady:
		return fmt.Sprintf("%s at %s", e.To.Key(), e.Estimate)
	}
	return ""
}

// Framework is the assembled run-time adaptation subsystem.
type Framework struct {
	sim     *vtime.Sim
	cfg     Config
	seq     int64
	log     []Event
	stopped bool
	at      resource.Vector // the joint estimate the latest decision was made at
	target  spec.Config     // the newest switch sent, or the active configuration
}

// New builds a framework and registers the steering hook that logs every
// applied switch and re-arms the monitoring agents after it.
func New(sim *vtime.Sim, cfg Config) (*Framework, error) {
	if cfg.Scheduler == nil || cfg.Steering == nil {
		return nil, fmt.Errorf("core: Scheduler and Steering are required")
	}
	f := &Framework{sim: sim, cfg: cfg, target: cfg.Steering.Current()}
	cfg.Steering.OnApply(func(old, new spec.Config) {
		f.logEvent(Event{Kind: EventSwitch, From: old, To: new})
		f.arm(new)
	})
	return f, nil
}

// Events returns the decision log.
func (f *Framework) Events() []Event { return append([]Event(nil), f.log...) }

func (f *Framework) logEvent(e Event) {
	e.At = f.sim.Now()
	f.log = append(f.log, e)
}

// SelectInitial chooses the starting configuration for the given resource
// conditions (the paper's automatic configuration in a new environment)
// and arms the monitoring agents with the region in which it stays the
// choice.
func (f *Framework) SelectInitial(res resource.Vector) (scheduler.Decision, error) {
	d, err := f.cfg.Scheduler.Select(res)
	if err != nil {
		return d, err
	}
	f.at = res.Clone()
	f.logEvent(Event{Kind: EventDecision, To: d.Config, Pref: d.PrefName, Predicted: d.Predicted, Estimate: f.at})
	f.arm(d.Config)
	return d, nil
}

// joint completes an agent's estimate v with the estimate the latest
// decision was made at, for the kinds v lacks, in a new vector: v is the
// agent's own, which the armed region must neither keep nor modify.
func joint(at, v resource.Vector) resource.Vector {
	res := at.Clone()
	for k, x := range v {
		res[k] = x
	}
	return res
}

// arm points every monitoring agent at the region in which cfg stays the
// scheduler's choice: an estimate is inside when Select, at its joint
// with the latest decision's estimate, picks cfg.
func (f *Framework) arm(cfg spec.Config) {
	if f.cfg.Monitor == nil {
		return
	}
	at := f.at
	valid := func(v resource.Vector) bool {
		d, err := f.cfg.Scheduler.Select(joint(at, v))
		return err == nil && d.Config.Equal(cfg)
	}
	f.cfg.Monitor.Arm(valid)
	for _, a := range f.cfg.RemoteAgents {
		a.Arm(valid)
	}
}

// Stop terminates the control loop after the current iteration.
func (f *Framework) Stop() { f.stopped = true }

// Start spawns the control-loop process, which needs a Monitor: it waits
// for triggers, decides at the monitor's estimate, and reads the steering
// agent's acknowledgements. It returns immediately.
func (f *Framework) Start() {
	f.sim.Spawn("core-control", func(p *vtime.Proc) {
		triggers := f.cfg.Monitor.Triggers()
		for !f.stopped {
			trig, ok, ready := triggers.RecvTimeout(p, time.Second)
			f.drainAcks()
			if !ready {
				continue
			}
			if !ok {
				return
			}
			f.logEvent(Event{Kind: EventTrigger, Trigger: trig})
			f.reconsider()
		}
	})
}

// drainAcks logs every refused switch. A refusal of the newest switch sent
// leaves nothing in flight: the active configuration is the target again,
// and the monitoring agents are armed with its region.
func (f *Framework) drainAcks() {
	acks := f.cfg.Steering.Acks()
	for ack, ok, ready := acks.TryRecv(); ready && ok; ack, ok, ready = acks.TryRecv() {
		if ack.Accepted {
			continue
		}
		f.logEvent(Event{Kind: EventReject, Ack: ack})
		if ack.Seq == f.seq {
			f.target = f.cfg.Steering.Current()
			f.arm(f.target)
		}
	}
}

// Decide is one decision pass at res, derated by margin (0 selects at res
// itself): when the choice differs from the session's target — the switch
// in flight if there is one, else the active configuration — it logs the
// decision and sends it to the steering agent, so a return to the active
// configuration cancels a switch in flight. It reports whether it sent,
// or the scheduler's error when nothing is feasible; res is not kept.
func (f *Framework) Decide(res resource.Vector, margin float64) (bool, error) {
	f.drainAcks()
	d, err := f.cfg.Scheduler.SelectDerated(res, margin)
	if err != nil || d.Config.Equal(f.target) {
		return false, err
	}
	f.seq++
	f.logEvent(Event{Kind: EventDecision, From: f.target, To: d.Config,
		Pref: d.PrefName, Predicted: d.Predicted, Estimate: res.Clone()})
	f.target = d.Config
	f.cfg.Steering.Control().TrySend(steering.ControlMsg{Seq: f.seq, Config: d.Config, Reason: d.PrefName})
	return true, nil
}

// reconsider runs one decision pass at the monitor's current estimates,
// judged as the armed region judges them.
func (f *Framework) reconsider() {
	res := joint(f.at, f.cfg.Monitor.Snapshot())
	sent, err := f.Decide(res, 0)
	if err != nil {
		f.logEvent(Event{Kind: EventNoFeasible, Estimate: res})
		// Nothing satisfies any preference right now; silence the triggers
		// and retry after a while.
		f.cfg.Monitor.Arm(nil)
		f.sim.After(retryInterval, func() {
			f.cfg.Monitor.Triggers().TrySend(monitor.Trigger{At: f.sim.Now(), Reason: "retry after no feasible configuration"})
		})
		return
	}
	f.at = res
	if sent {
		// Silence triggers while the switch is in flight; its application
		// or its refusal re-arms them.
		f.cfg.Monitor.Arm(nil)
		return
	}
	// The target is still the best; re-arm its region around the estimate.
	f.logEvent(Event{Kind: EventSteady, To: f.target, Estimate: res})
	f.arm(f.target)
}
