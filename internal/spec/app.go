package spec

import (
	"fmt"

	"tunable/internal/resource"
)

// Param declares a control parameter ("knob") and its finite domain.
type Param struct {
	Name   string
	Kind   ValueKind
	Domain []Value // candidate values in declaration order
}

// Contains reports whether v belongs to the parameter's domain.
func (p *Param) Contains(v Value) bool {
	for _, d := range p.Domain {
		if d.Equal(v) {
			return true
		}
	}
	return false
}

// Direction states whether larger or smaller metric values are preferable.
type Direction int

// Metric preference directions.
const (
	LowerIsBetter Direction = iota
	HigherIsBetter
)

func (d Direction) String() string {
	if d == HigherIsBetter {
		return "maximize"
	}
	return "minimize"
}

// MetricDecl declares an application-specific QoS metric (the QoS_metric
// construct of Figure 2).
type MetricDecl struct {
	Name   string
	Unit   string // "s" for durations, "" for dimensionless
	Better Direction
}

// HostDecl declares a host in the execution environment.
type HostDecl struct {
	Name string
}

// LinkDecl declares a network link between two hosts.
type LinkDecl struct {
	Name string
	From string
	To   string
}

// Env is the execution environment: the system components the application
// runs on (the execution_env construct).
type Env struct {
	Hosts []HostDecl
	Links []LinkDecl
}

// Host looks up a host declaration by name.
func (e *Env) Host(name string) *HostDecl {
	for i := range e.Hosts {
		if e.Hosts[i].Name == name {
			return &e.Hosts[i]
		}
	}
	return nil
}

// Link looks up a link declaration by name.
func (e *Env) Link(name string) *LinkDecl {
	for i := range e.Links {
		if e.Links[i].Name == name {
			return &e.Links[i]
		}
	}
	return nil
}

// ResourceRef names a resource of an environment component, e.g.
// client.cpu or net.bandwidth (the [client.CPU, client.network] clause of
// the task construct).
type ResourceRef struct {
	Component string
	Kind      resource.Kind
}

func (r ResourceRef) String() string { return r.Component + "." + string(r.Kind) }

// Task declares a tunable application module (the task construct): the
// parameters that shape it, the resources it consumes, the metrics it
// yields, a guard restricting which configurations may run it, and the
// successor tasks control may flow to — the paper models a tunable
// application as "a family of DAGs built up from individual modules".
type Task struct {
	Name   string
	Params []string
	Uses   []ResourceRef
	Yields []string
	Guard  *Expr    // nil means always runnable
	Next   []string // successor tasks (must form a DAG)
}

// Transition declares a reconfiguration point (the transition construct):
// a guard over the current and next configuration (identifiers cur.X and
// new.X) and a named application-specific action executed when the
// transition fires.
type Transition struct {
	Guard  *Expr // nil means always applicable
	Action string
}

// App is a complete tunability specification.
type App struct {
	Name        string
	Params      []Param
	Env         Env
	Metrics     []MetricDecl
	Tasks       []Task
	Transitions []Transition
}

// Param looks up a parameter declaration by name.
func (a *App) Param(name string) *Param {
	for i := range a.Params {
		if a.Params[i].Name == name {
			return &a.Params[i]
		}
	}
	return nil
}

// Metric looks up a metric declaration by name.
func (a *App) Metric(name string) *MetricDecl {
	for i := range a.Metrics {
		if a.Metrics[i].Name == name {
			return &a.Metrics[i]
		}
	}
	return nil
}

// Task looks up a task declaration by name.
func (a *App) Task(name string) *Task {
	for i := range a.Tasks {
		if a.Tasks[i].Name == name {
			return &a.Tasks[i]
		}
	}
	return nil
}

// Validate checks internal consistency: domains non-empty, task references
// resolve, guards type-check against the parameter environment.
func (a *App) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("spec: application has no name")
	}
	seen := map[string]bool{}
	for _, p := range a.Params {
		if seen[p.Name] {
			return fmt.Errorf("spec: duplicate parameter %q", p.Name)
		}
		seen[p.Name] = true
		if len(p.Domain) == 0 {
			return fmt.Errorf("spec: parameter %q has empty domain", p.Name)
		}
		for _, v := range p.Domain {
			if v.Kind != p.Kind {
				return fmt.Errorf("spec: parameter %q: domain value %s has kind %s, want %s",
					p.Name, v, v.Kind, p.Kind)
			}
		}
	}
	hostSeen := map[string]bool{}
	for _, h := range a.Env.Hosts {
		if hostSeen[h.Name] {
			return fmt.Errorf("spec: duplicate host %q", h.Name)
		}
		hostSeen[h.Name] = true
	}
	for _, l := range a.Env.Links {
		if a.Env.Host(l.From) == nil || a.Env.Host(l.To) == nil {
			return fmt.Errorf("spec: link %q references unknown host", l.Name)
		}
	}
	metricSeen := map[string]bool{}
	for _, m := range a.Metrics {
		if metricSeen[m.Name] {
			return fmt.Errorf("spec: duplicate metric %q", m.Name)
		}
		metricSeen[m.Name] = true
	}
	taskSeen := map[string]bool{}
	for _, t := range a.Tasks {
		if taskSeen[t.Name] {
			return fmt.Errorf("spec: duplicate task %q", t.Name)
		}
		taskSeen[t.Name] = true
		for _, pn := range t.Params {
			if a.Param(pn) == nil {
				return fmt.Errorf("spec: task %q references unknown parameter %q", t.Name, pn)
			}
		}
		for _, u := range t.Uses {
			if a.Env.Host(u.Component) == nil && a.Env.Link(u.Component) == nil {
				return fmt.Errorf("spec: task %q uses unknown component %q", t.Name, u.Component)
			}
		}
		for _, y := range t.Yields {
			if a.Metric(y) == nil {
				return fmt.Errorf("spec: task %q yields unknown metric %q", t.Name, y)
			}
		}
		if t.Guard != nil {
			if err := a.checkGuardIdents(t.Guard, false); err != nil {
				return fmt.Errorf("spec: task %q guard: %v", t.Name, err)
			}
		}
		for _, nxt := range t.Next {
			if nxt == t.Name {
				return fmt.Errorf("spec: task %q lists itself as successor", t.Name)
			}
		}
	}
	// Control flow must reference declared tasks and form a DAG.
	for _, t := range a.Tasks {
		for _, nxt := range t.Next {
			if a.Task(nxt) == nil {
				return fmt.Errorf("spec: task %q flows to unknown task %q", t.Name, nxt)
			}
		}
	}
	if _, err := a.TaskOrder(); err != nil {
		return err
	}
	for i, tr := range a.Transitions {
		if tr.Guard != nil {
			if err := a.checkGuardIdents(tr.Guard, true); err != nil {
				return fmt.Errorf("spec: transition %d guard: %v", i, err)
			}
		}
	}
	return nil
}

// checkGuardIdents verifies every identifier in the guard resolves to a
// parameter; transition guards may use the cur./new. prefixes.
func (a *App) checkGuardIdents(e *Expr, allowCurNew bool) error {
	for _, id := range e.Idents() {
		name := id
		switch {
		case len(id) > 4 && id[:4] == "cur.":
			if !allowCurNew {
				return fmt.Errorf("cur. prefix only valid in transition guards (%s)", id)
			}
			name = id[4:]
		case len(id) > 4 && id[:4] == "new.":
			if !allowCurNew {
				return fmt.Errorf("new. prefix only valid in transition guards (%s)", id)
			}
			name = id[4:]
		}
		if a.Param(name) == nil && !a.isEnumSymbol(name) {
			return fmt.Errorf("unknown parameter or enum symbol %q", name)
		}
	}
	return nil
}

// isEnumSymbol reports whether name appears in any enum parameter's domain
// (guards may reference enum literals unquoted, e.g. c == lzw).
func (a *App) isEnumSymbol(name string) bool {
	for _, p := range a.Params {
		if p.Kind != EnumValue {
			continue
		}
		for _, v := range p.Domain {
			if v.S == name {
				return true
			}
		}
	}
	return false
}

// Enumerate returns the full cartesian product of parameter domains in
// deterministic order (parameters in declaration order, last parameter
// varying fastest).
func (a *App) Enumerate() []Config {
	if len(a.Params) == 0 {
		return nil
	}
	out := []Config{}
	idx := make([]int, len(a.Params))
	for {
		cfg := make(Config, len(a.Params))
		for i, p := range a.Params {
			cfg[p.Name] = p.Domain[idx[i]]
		}
		out = append(out, cfg)
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(a.Params[i].Domain) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out
}

// RunnableConfigs returns the configurations for which every task guard in
// the application evaluates true.
func (a *App) RunnableConfigs() []Config {
	var out []Config
	for _, cfg := range a.Enumerate() {
		ok := true
		for _, t := range a.Tasks {
			if t.Guard == nil {
				continue
			}
			v, err := t.Guard.Eval(GuardEnv(cfg))
			if err != nil || !v.Bool() {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, cfg)
		}
	}
	return out
}

// TransitionAllowed evaluates all transition guards for a cur→next change
// and returns the actions whose guards fire. An error from a guard is
// treated as "does not fire".
func (a *App) TransitionAllowed(cur, next Config) (actions []string) {
	env := TransitionEnv(cur, next)
	for _, tr := range a.Transitions {
		if tr.Guard == nil {
			actions = append(actions, tr.Action)
			continue
		}
		v, err := tr.Guard.Eval(env)
		if err == nil && v.Bool() {
			actions = append(actions, tr.Action)
		}
	}
	return actions
}

// ValidateConfig checks that cfg assigns an in-domain value to every
// declared parameter.
func (a *App) ValidateConfig(cfg Config) error {
	if len(cfg) != len(a.Params) {
		return fmt.Errorf("spec: config has %d parameters, app declares %d", len(cfg), len(a.Params))
	}
	for _, p := range a.Params {
		v, ok := cfg[p.Name]
		if !ok {
			return fmt.Errorf("spec: config missing parameter %q", p.Name)
		}
		if !p.Contains(v) {
			return fmt.Errorf("spec: parameter %q: value %s outside domain", p.Name, v)
		}
	}
	return nil
}

// TaskOrder returns a deterministic topological ordering of the task DAG
// (declaration order among tasks whose predecessors are all scheduled),
// or an error if the control flow contains a cycle.
func (a *App) TaskOrder() ([]string, error) {
	if len(a.Tasks) == 0 {
		return nil, nil
	}
	indeg := map[string]int{}
	for _, t := range a.Tasks {
		if _, ok := indeg[t.Name]; !ok {
			indeg[t.Name] = 0
		}
		for _, nxt := range t.Next {
			indeg[nxt]++
		}
	}
	var order []string
	scheduled := map[string]bool{}
	for len(order) < len(a.Tasks) {
		progressed := false
		for _, t := range a.Tasks {
			if scheduled[t.Name] || indeg[t.Name] != 0 {
				continue
			}
			scheduled[t.Name] = true
			order = append(order, t.Name)
			for _, nxt := range t.Next {
				indeg[nxt]--
			}
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("spec: task control flow contains a cycle")
		}
	}
	return order, nil
}

// ParamNames returns parameter names in declaration order.
func (a *App) ParamNames() []string {
	names := make([]string, len(a.Params))
	for i, p := range a.Params {
		names[i] = p.Name
	}
	return names
}
