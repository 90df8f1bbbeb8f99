// Package apps is the first-class workload layer: it promotes the
// applications the framework tunes from throwaway examples into
// production implementations behind one interface — a tunability spec, a
// profiled performance database, a session driver that runs in virtual
// time on shared sandbox hosts, and a QoS verdict — so experiments can
// mix application classes on one resource pool and let the scheduler
// arbitrate between them.
//
// Two applications are implemented: Video, a frame-rate-adaptive stream
// (the motivating example from the paper's introduction), and Foveal, the
// paper's active visualization session (internal/avis). RunMix runs a
// seeded mix of both classes under admission control (scheduler.Admission
// for host CPU, scheduler.Arbiter for cross-class shares of the link
// pool). Each session decides through its own core.Framework over its
// class's scheduler, which a retuner drives as contention and injected
// faults move the resources underneath it.
package apps

import (
	"fmt"

	"tunable/internal/netem"
	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/sandbox"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
	"tunable/internal/steering"
	"tunable/internal/vtime"
)

// QoS is an application's judgement of one finished session.
type QoS struct {
	// Pass reports whether the session met the class's service objective.
	Pass bool
	// Score is the session's headline quality number (higher is better
	// regardless of the underlying metric's direction), used for ranking.
	Score float64
	// Reason names the violated objective when Pass is false.
	Reason string
}

// SessionEnv is the execution environment the harness hands a session:
// the admitted sandboxes, the session's (pool-backed) link, a steering
// agent carrying the tuning agent's decisions, and the session's virtual
// deadline budget.
type SessionEnv struct {
	Sim    *vtime.Sim
	Link   *netem.Link
	Client *sandbox.Sandbox
	Server *sandbox.Sandbox
	// Steer carries configuration switches from the class's tuning agent;
	// sessions apply them at their transition points.
	Steer *steering.Agent
	// Seed is the session's deterministic stream for any internal jitter.
	Seed uint64
}

// Application is one first-class tunable workload.
type Application interface {
	// Class names the application class ("video", "foveal"); it doubles as
	// the arbitration class and the fault-injection target label prefix.
	Class() string
	// Spec returns the application's tunability specification, parsed
	// once and shared: callers must not modify it.
	Spec() *spec.App
	// DefaultConfig is the configuration a session starts in before its
	// tuning agent has made a decision. When the scheduler finds nothing
	// feasible, the session holds its current configuration, which is
	// this one only if no plan has succeeded yet.
	DefaultConfig() spec.Config
	// DB returns the profiled performance database (built once, cached).
	DB() (*perfdb.DB, error)
	// Preferences is the ordered preference list for the class's
	// scheduler.
	Preferences() []scheduler.Preference
	// Demand is the per-component CPU demand (component → resource vector)
	// one session reserves through admission control. Components must be
	// "client" and/or "server". The map and its vectors are shared: callers
	// must not modify them.
	Demand() map[string]resource.Vector
	// LinkDemand is one session's nominal link bandwidth reservation in
	// bytes/second — the amount the arbiter debits from the class's share
	// of the link pool.
	LinkDemand() float64
	// Run drives one session to completion in virtual time and returns
	// its observed QoS metrics (keys must be declared in Spec).
	Run(p *vtime.Proc, env *SessionEnv) (spec.Metrics, error)
	// Verdict judges a finished session's metrics against the class's
	// service objective.
	Verdict(m spec.Metrics) QoS
}

// validateMetrics checks that an application's Run returned exactly the
// declared QoS metrics — the contract the report and verdict code rely
// on.
func validateMetrics(app Application, m spec.Metrics) error {
	for name := range m {
		if app.Spec().Metric(name) == nil {
			return fmt.Errorf("apps: %s session yielded undeclared metric %q", app.Class(), name)
		}
	}
	for _, d := range app.Spec().Metrics {
		if _, ok := m[d.Name]; !ok {
			return fmt.Errorf("apps: %s session missing declared metric %q", app.Class(), d.Name)
		}
	}
	return nil
}
