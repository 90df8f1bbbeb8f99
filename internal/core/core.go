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
// the scheduler would now choose differently.
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
	// application, its preferences and the performance model (the offline
	// profiled database, or a live perfstore refining on telemetry; the
	// control loop is identical over either), and may share it with
	// whatever else decides for the same application.
	Scheduler *scheduler.Scheduler
	Monitor   *monitor.Agent
	Steering  *steering.Agent
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

// Event is one entry in the framework's decision log.
type Event struct {
	At     time.Duration
	Kind   EventKind
	Detail string
}

// Framework is the assembled run-time adaptation subsystem.
type Framework struct {
	sim  *vtime.Sim
	cfg  Config
	seq  int64
	log  []Event
	stop *vtime.Event
	at   resource.Vector // the joint estimate the latest decision was made at
}

// New builds a framework over the caller's scheduler and registers the
// steering hook that re-arms the monitoring agents after every applied
// switch.
func New(sim *vtime.Sim, cfg Config) (*Framework, error) {
	if cfg.Scheduler == nil || cfg.Monitor == nil || cfg.Steering == nil {
		return nil, fmt.Errorf("core: Scheduler, Monitor, and Steering are all required")
	}
	f := &Framework{
		sim:  sim,
		cfg:  cfg,
		stop: vtime.NewEvent(sim, "core.stop"),
	}
	cfg.Steering.OnApply(func(old, new spec.Config) {
		f.logEvent(EventSwitch, fmt.Sprintf("%s -> %s", old.Key(), new.Key()))
		f.arm(new)
	})
	return f, nil
}

// Events returns the decision log.
func (f *Framework) Events() []Event { return append([]Event(nil), f.log...) }

func (f *Framework) logEvent(kind EventKind, detail string) {
	f.log = append(f.log, Event{At: f.sim.Now(), Kind: kind, Detail: detail})
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
	f.logEvent(EventDecision, fmt.Sprintf("initial %s (pref %q)", d.Config.Key(), d.PrefName))
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
func (f *Framework) Stop() { f.stop.Set() }

// Start spawns the control-loop process: it waits for monitoring
// triggers, invokes the scheduler, and dispatches control messages to the
// steering agent. It returns immediately.
func (f *Framework) Start() {
	f.sim.Spawn("core-control", func(p *vtime.Proc) {
		triggers := f.cfg.Monitor.Triggers()
		acks := f.cfg.Steering.Acks()
		for !f.stop.IsSet() {
			trig, ok, ready := triggers.RecvTimeout(p, time.Second)
			// Drain steering acknowledgements regardless.
			for {
				ack, ok2, ready2 := acks.TryRecv()
				if !ready2 || !ok2 {
					break
				}
				if !ack.Accepted {
					f.logEvent(EventReject, fmt.Sprintf("seq %d: %s", ack.Seq, ack.Reason))
				}
			}
			if !ready {
				continue
			}
			if !ok {
				return
			}
			f.logEvent(EventTrigger, trig.String())
			f.reconsider(p)
		}
	})
}

// reconsider runs one scheduling pass against the current estimates,
// judged as the armed region judges them.
func (f *Framework) reconsider(p *vtime.Proc) {
	res := joint(f.at, f.cfg.Monitor.Snapshot())
	d, err := f.cfg.Scheduler.Select(res)
	if err != nil {
		f.logEvent(EventNoFeasible, fmt.Sprintf("at %s", res))
		// Nothing satisfies any preference right now; silence the triggers
		// and retry after a while.
		f.cfg.Monitor.Arm(nil)
		f.sim.After(retryInterval, func() {
			f.cfg.Monitor.Triggers().TrySend(monitor.Trigger{At: f.sim.Now(), Reason: "retry after no feasible configuration"})
		})
		return
	}
	f.at = res
	cur := f.cfg.Steering.Current()
	if d.Config.Equal(cur) {
		// The active configuration is still the best; re-arm its region
		// around the new estimate.
		f.logEvent(EventSteady, fmt.Sprintf("%s at %s", cur.Key(), res))
		f.arm(cur)
		return
	}
	f.seq++
	f.logEvent(EventDecision, fmt.Sprintf("%s -> %s (pref %q, predicted %s)",
		cur.Key(), d.Config.Key(), d.PrefName, fmtMetrics(d.Predicted)))
	// Silence triggers while the switch is in flight; the steering OnApply
	// hook re-arms them.
	f.cfg.Monitor.Arm(nil)
	f.cfg.Steering.Control().TrySend(steering.ControlMsg{
		Seq:    f.seq,
		Config: d.Config,
		Reason: fmt.Sprintf("trigger at %s", res),
	})
}

func fmtMetrics(m spec.Metrics) string {
	return fmt.Sprintf("%v", map[string]float64(m))
}
