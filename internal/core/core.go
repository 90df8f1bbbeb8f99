// Package core assembles the paper's adaptation framework (Figure 1): the
// tunability specification, the performance database, the monitoring
// agent, the resource scheduler, and the steering agent, wired into the
// run-time loop that (1) detects when the active configuration no longer
// satisfies user preferences, (2) selects a replacement by correlating
// observed resource characteristics with the performance database, and
// (3) steers the application onto it at the next transition point.
package core

import (
	"fmt"
	"time"

	"tunable/internal/monitor"
	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
	"tunable/internal/steering"
	"tunable/internal/vtime"
)

// Components maps each resource dimension of the performance database to
// the execution-environment component on which the monitoring agent
// observes it (e.g. CPU on "client", bandwidth on "client").
type Components map[resource.Kind]string

// Config configures a Framework.
type Config struct {
	App *spec.App
	// DB is the performance model the scheduler consults: the offline
	// profiled database, or a live perfstore refining on telemetry — the
	// control loop is identical over either.
	DB          perfdb.Model
	Preferences []scheduler.Preference
	Monitor     *monitor.Agent
	Steering    *steering.Agent
	Components  Components
	// RemoteAgents are monitoring agents in remote instances of the
	// application (e.g. the server side). The framework arms their
	// validity ranges alongside the main agent's; their out-of-range
	// pushes arrive at the main agent as peer estimates and participate
	// in its triggering (Section 6.1's inter-monitor communication).
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
	sim   *vtime.Sim
	cfg   Config
	sched *scheduler.Scheduler
	seq   int64
	log   []Event
	stop  *vtime.Event
}

// New builds a framework, constructing the resource scheduler over the
// database and preferences and registering the steering hook that re-arms
// the monitoring agent after every applied switch.
func New(sim *vtime.Sim, cfg Config) (*Framework, error) {
	if cfg.App == nil || cfg.DB == nil || cfg.Monitor == nil || cfg.Steering == nil {
		return nil, fmt.Errorf("core: App, DB, Monitor, and Steering are all required")
	}
	if len(cfg.Components) == 0 {
		return nil, fmt.Errorf("core: Components mapping is required")
	}
	sched, err := scheduler.New(cfg.App, cfg.DB, cfg.Preferences)
	if err != nil {
		return nil, err
	}
	f := &Framework{
		sim:   sim,
		cfg:   cfg,
		sched: sched,
		stop:  vtime.NewEvent(sim, "core.stop"),
	}
	cfg.Steering.OnApply(func(old, new spec.Config, ranges map[resource.Kind][2]float64) {
		f.logEvent(EventSwitch, fmt.Sprintf("%s -> %s", old.Key(), new.Key()))
		f.armRanges(ranges)
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
// and arms the monitoring agent with its validity ranges.
func (f *Framework) SelectInitial(res resource.Vector) (scheduler.Decision, error) {
	d, err := f.sched.Select(res)
	if err != nil {
		return d, err
	}
	f.logEvent(EventDecision, fmt.Sprintf("initial %s (pref %q)", d.Config.Key(), d.PrefName))
	f.armRanges(d.ValidRanges)
	return d, nil
}

// armRanges points the monitoring agents' triggers at the bands within
// which the active configuration remains valid.
func (f *Framework) armRanges(ranges map[resource.Kind][2]float64) {
	agents := append([]*monitor.Agent{f.cfg.Monitor}, f.cfg.RemoteAgents...)
	for _, a := range agents {
		a.ClearRanges()
	}
	for kind, band := range ranges {
		comp, ok := f.cfg.Components[kind]
		if !ok {
			continue
		}
		for _, a := range agents {
			a.SetValidRange(comp, kind, band[0], band[1])
		}
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

// reconsider runs one scheduling pass against the current estimates.
func (f *Framework) reconsider(p *vtime.Proc) {
	res := f.cfg.Monitor.Snapshot()
	d, err := f.sched.Select(res)
	if err != nil {
		f.logEvent(EventNoFeasible, fmt.Sprintf("at %s", res))
		// Nothing satisfies any preference right now; silence the triggers
		// and retry after a while.
		f.cfg.Monitor.ClearRanges()
		f.sim.After(retryInterval, func() {
			f.cfg.Monitor.Triggers().TrySend(monitor.Trigger{At: f.sim.Now()})
		})
		return
	}
	cur := f.cfg.Steering.Current()
	if d.Config.Equal(cur) {
		// The active configuration is still the best; re-centre the
		// validity bands on the new resource point.
		f.logEvent(EventSteady, fmt.Sprintf("%s at %s", cur.Key(), res))
		f.armRanges(d.ValidRanges)
		return
	}
	f.seq++
	f.logEvent(EventDecision, fmt.Sprintf("%s -> %s (pref %q, predicted %s)",
		cur.Key(), d.Config.Key(), d.PrefName, fmtMetrics(d.Predicted)))
	// Silence triggers while the switch is in flight; the steering OnApply
	// hook re-arms them.
	f.cfg.Monitor.ClearRanges()
	f.cfg.Steering.Control().TrySend(steering.ControlMsg{
		Seq:         f.seq,
		Config:      d.Config,
		ValidRanges: d.ValidRanges,
		Reason:      fmt.Sprintf("trigger at %s", res),
	})
}

func fmtMetrics(m spec.Metrics) string {
	return fmt.Sprintf("%v", map[string]float64(m))
}
