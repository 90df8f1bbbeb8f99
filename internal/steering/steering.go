// Package steering implements the paper's steering agent (Section 6.3):
// the component that ultimately switches application configurations. It
// receives control messages (from the resource scheduler or from remote
// instances of the application), holds them until the application reaches
// a task boundary or an annotated transition point, evaluates transition
// guards, executes the application-specific transition handlers (e.g.
// notifying the server of a codec change), applies the new control
// parameters, and acknowledges the scheduler. A veto hook supports the
// guard negotiation the paper describes: a rejected switch is acknowledged
// negatively so the scheduler can propose an alternative.
package steering

import (
	"fmt"
	"time"

	"tunable/internal/metrics"
	"tunable/internal/resource"
	"tunable/internal/spec"
	"tunable/internal/vtime"
)

// ControlMsg instructs the steering agent to switch to a new
// configuration. ValidRanges travel with the message so the monitoring
// agent can be re-armed for the new configuration ("these messages specify
// new values for control parameters as well as the resource conditions
// under which these new settings are valid").
type ControlMsg struct {
	Seq         int64
	Config      spec.Config
	ValidRanges map[resource.Kind][2]float64
	Reason      string
}

// Ack reports the fate of a control message back to its sender.
type Ack struct {
	Seq      int64
	Accepted bool
	At       time.Duration
	Applied  spec.Config
	Reason   string
}

// Handler is an application-specific transition action, executed in the
// application's process context when its transition guard fires.
type Handler func(p *vtime.Proc, cur, next spec.Config)

// Veto inspects a proposed switch; returning false rejects it (guard
// negotiation).
type Veto func(cur, next spec.Config) bool

// Agent applies configuration changes at safe points.
type Agent struct {
	app      *spec.App
	sim      *vtime.Sim
	current  spec.Config
	ctrl     *vtime.Chan[ControlMsg]
	acks     *vtime.Chan[Ack]
	handlers map[string]Handler
	veto     Veto
	onApply  []func(old, new spec.Config, ranges map[resource.Kind][2]float64)
	switches int64
	rejects  int64

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mSwitches   *metrics.Counter
	mRejects    *metrics.Counter
	mSuperseded *metrics.Counter
	mGuardRound *metrics.Counter
}

// New creates a steering agent with the given initial configuration.
func New(sim *vtime.Sim, app *spec.App, initial spec.Config) (*Agent, error) {
	if err := app.ValidateConfig(initial); err != nil {
		return nil, err
	}
	return &Agent{
		app:      app,
		sim:      sim,
		current:  initial.Clone(),
		ctrl:     vtime.NewNamedChan[ControlMsg](sim, 16, "steering.ctrl"),
		acks:     vtime.NewNamedChan[Ack](sim, 16, "steering.acks"),
		handlers: make(map[string]Handler),
	}, nil
}

// EnableMetrics instruments the agent. Metric families:
// steering_switches_total (reconfigurations applied),
// steering_rejects_total (control messages refused — vetoed, invalid, or
// redundant), steering_superseded_total (queued messages displaced by a
// newer one before application), and steering_guard_rounds_total
// (negotiation rounds, i.e. control messages actually evaluated against
// guards and veto hooks).
func (a *Agent) EnableMetrics(reg *metrics.Registry) {
	a.mSwitches = reg.Counter("steering_switches_total",
		"Configuration switches applied at transition points.")
	a.mRejects = reg.Counter("steering_rejects_total",
		"Control messages rejected (veto, validation, or redundancy).")
	a.mSuperseded = reg.Counter("steering_superseded_total",
		"Queued control messages superseded before application.")
	a.mGuardRound = reg.Counter("steering_guard_rounds_total",
		"Guard negotiation rounds (control messages evaluated).")
}

// Current returns the active configuration.
func (a *Agent) Current() spec.Config { return a.current.Clone() }

// Control returns the channel on which control messages arrive.
func (a *Agent) Control() *vtime.Chan[ControlMsg] { return a.ctrl }

// Acks returns the acknowledgement channel.
func (a *Agent) Acks() *vtime.Chan[Ack] { return a.acks }

// Switches returns the number of applied configuration changes.
func (a *Agent) Switches() int64 { return a.switches }

// Rejects returns the number of vetoed control messages.
func (a *Agent) Rejects() int64 { return a.rejects }

// OnAction registers the handler for a named transition action declared in
// the specification.
func (a *Agent) OnAction(name string, h Handler) { a.handlers[name] = h }

// SetVeto installs the negotiation hook.
func (a *Agent) SetVeto(v Veto) { a.veto = v }

// OnApply registers a callback invoked after every applied switch (the
// core framework uses it to re-arm the monitoring agent).
func (a *Agent) OnApply(fn func(old, new spec.Config, ranges map[resource.Kind][2]float64)) {
	a.onApply = append(a.onApply, fn)
}

// MaybeApply is called by the application at task boundaries and at
// annotated transition points. If a control message is pending, the switch
// happens here: transition guards are evaluated against (current, next),
// firing handlers run, and the new parameters take effect. It returns the
// now-active configuration and whether a switch occurred. When several
// control messages have queued up, only the newest is applied (the older
// ones are acknowledged as superseded).
func (a *Agent) MaybeApply(p *vtime.Proc) (spec.Config, bool) {
	var pending *ControlMsg
	for {
		msg, ok, ready := a.ctrl.TryRecv()
		if !ready || !ok {
			break
		}
		if pending != nil {
			a.mSuperseded.Inc()
			a.acks.TrySend(Ack{
				Seq: pending.Seq, Accepted: false, At: p.Now(),
				Applied: a.current.Clone(), Reason: "superseded",
			})
		}
		m := msg
		pending = &m
	}
	if pending == nil {
		return a.current, false
	}
	if err := a.apply(p, *pending); err != nil {
		a.rejects++
		a.mRejects.Inc()
		a.acks.TrySend(Ack{
			Seq: pending.Seq, Accepted: false, At: p.Now(),
			Applied: a.current.Clone(), Reason: err.Error(),
		})
		return a.current, false
	}
	a.acks.TrySend(Ack{
		Seq: pending.Seq, Accepted: true, At: p.Now(),
		Applied: a.current.Clone(),
	})
	return a.current, true
}

func (a *Agent) apply(p *vtime.Proc, msg ControlMsg) error {
	a.mGuardRound.Inc()
	if err := a.app.ValidateConfig(msg.Config); err != nil {
		return err
	}
	if msg.Config.Equal(a.current) {
		return fmt.Errorf("steering: already in configuration %s", msg.Config.Key())
	}
	if a.veto != nil && !a.veto(a.current, msg.Config) {
		return fmt.Errorf("steering: switch to %s vetoed", msg.Config.Key())
	}
	old := a.current
	// Run the application-specific transition actions whose guards fire.
	for _, action := range a.app.TransitionAllowed(old, msg.Config) {
		if h, ok := a.handlers[action]; ok {
			h(p, old, msg.Config)
		}
	}
	a.current = msg.Config.Clone()
	a.switches++
	a.mSwitches.Inc()
	for _, fn := range a.onApply {
		fn(old, a.current.Clone(), msg.ValidRanges)
	}
	return nil
}
