// Package scheduler implements the paper's resource scheduler
// (Section 6.2): given the performance database, measured resource
// characteristics, and an ordered list of user preference constraints, it
// prunes the candidate configurations down to those predicted to satisfy
// the constraints and picks the one that best satisfies the objective
// function. Preferences are examined in decreasing order; when one cannot
// be satisfied under current resources, the next is tried. The resource
// conditions under which a choice stays valid are the scheduler's own:
// the framework (internal/core) arms the monitoring agent with "Select
// still picks this configuration", so the region the agent watches is
// exactly the set of estimates for which this decision would be made.
package scheduler

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/spec"
)

// ErrNoFeasible is returned when no configuration satisfies any preference
// under the given resource conditions.
var ErrNoFeasible = errors.New("scheduler: no feasible configuration for any preference")

// Constraint bounds one quality metric to a value range (the paper's
// "value ranges on a subset of output quality metrics"). Use ±Inf for
// one-sided bounds.
type Constraint struct {
	Metric string
	Lo, Hi float64
}

// Satisfied reports whether v lies within the constraint.
func (c Constraint) Satisfied(v float64) bool { return v >= c.Lo && v <= c.Hi }

// AtMost bounds a metric from above.
func AtMost(metric string, hi float64) Constraint {
	return Constraint{Metric: metric, Lo: math.Inf(-1), Hi: hi}
}

// Preference is one user preference: constraints plus a single-metric
// objective (the paper assumes "a relatively restricted form of this
// function: maximizing or minimizing a single quality metric"; the
// direction comes from the metric's declaration).
type Preference struct {
	Name        string
	Constraints []Constraint
	Objective   string // metric to optimize
}

// Decision is the scheduler's output.
type Decision struct {
	Config     spec.Config
	Predicted  spec.Metrics
	Preference int    // index of the satisfied preference
	PrefName   string // its name
}

// Scheduler selects configurations for one tunable application. It runs
// over any perfdb.Model — the static profiled database or perfstore's
// live, refining store.
type Scheduler struct {
	app   *spec.App
	db    perfdb.Model
	prefs []Preference
	cands []candidate // in canonical key order
	evals sync.Pool   // of *evaluation, recycled between decisions
}

// candidate is one configuration the scheduler may pick, with the
// canonical key it is looked up and tie-broken by.
type candidate struct {
	cfg spec.Config
	key string
}

// New creates a scheduler over any performance model. Candidates default
// to the configurations present in the model that pass all task guards.
func New(app *spec.App, db perfdb.Model, prefs []Preference) (*Scheduler, error) {
	if len(prefs) == 0 {
		return nil, fmt.Errorf("scheduler: no preferences given")
	}
	for _, p := range prefs {
		if app.Metric(p.Objective) == nil {
			return nil, fmt.Errorf("scheduler: preference %q: unknown objective metric %q", p.Name, p.Objective)
		}
		for _, c := range p.Constraints {
			if app.Metric(c.Metric) == nil {
				return nil, fmt.Errorf("scheduler: preference %q: unknown constrained metric %q", p.Name, c.Metric)
			}
		}
	}
	s := &Scheduler{app: app, db: db, prefs: prefs}
	runnable := map[string]bool{}
	for _, cfg := range app.RunnableConfigs() {
		runnable[cfg.Key()] = true
	}
	for _, cfg := range db.Configs() {
		if key := cfg.Key(); runnable[key] {
			s.cands = append(s.cands, candidate{cfg, key})
		}
	}
	sort.Slice(s.cands, func(i, j int) bool { return s.cands[i].key < s.cands[j].key })
	return s, nil
}

// Candidates returns the candidate configurations in canonical order.
func (s *Scheduler) Candidates() []spec.Config {
	out := make([]spec.Config, len(s.cands))
	for i, c := range s.cands {
		out[i] = c.cfg
	}
	return out
}

// Select picks the configuration best satisfying the highest-priority
// feasible preference under resource conditions res. It is safe for
// concurrent use.
func (s *Scheduler) Select(res resource.Vector) (Decision, error) {
	ev := s.evaluation()
	defer s.evals.Put(ev)
	return ev.decide(res)
}

// SelectDerated derates every resource estimate by margin (0.2 plans
// against 80% of each estimate) before selecting. The mix harness
// (internal/apps) calls it instead of Select while classes contend for
// the arbiter's pools, when a session's estimate is a share other classes
// may claim: the conservative failure mode is a configuration that
// underuses real resources, not one that overcommits imaginary ones. No
// monitoring agent calls it. margin is clamped to [0, 1).
func (s *Scheduler) SelectDerated(res resource.Vector, margin float64) (Decision, error) {
	if margin < 0 {
		margin = 0
	}
	if margin >= 1 {
		margin = 0.99
	}
	ev := s.evaluation()
	defer s.evals.Put(ev)
	clear(ev.derated)
	for k, v := range res {
		ev.derated[k] = v * (1 - margin)
	}
	return ev.decide(ev.derated)
}

// evaluation is the working state of one decision: each candidate's
// compiled profile, resolved from the model at the start of the decision,
// and the metric maps the candidate predictions are written into. A
// Scheduler recycles evaluations through its pool, so a warm decision
// allocates only its result.
type evaluation struct {
	s        *Scheduler
	lats     []*perfdb.Lattice // per candidate; nil where the model has no profile
	m, bestM spec.Metrics      // prediction under evaluation; the best one of the last call to best
	derated  resource.Vector   // SelectDerated's planning point
}

// evaluation takes a recycled evaluation from the pool, or makes one.
func (s *Scheduler) evaluation() *evaluation {
	if ev, ok := s.evals.Get().(*evaluation); ok {
		return ev
	}
	return &evaluation{
		s:       s,
		lats:    make([]*perfdb.Lattice, len(s.cands)),
		m:       spec.Metrics{},
		bestM:   spec.Metrics{},
		derated: resource.Vector{},
	}
}

// decide resolves every candidate's lattice afresh — a live model
// republishes its lattices as it folds new records, so none is kept
// across decisions — then runs the preferences in order at res and
// returns the first feasible one's pick. Only the returned Decision's
// Predicted is freshly allocated.
func (ev *evaluation) decide(res resource.Vector) (Decision, error) {
	s := ev.s
	for i, c := range s.cands {
		l, err := s.db.Lattice(c.key)
		if err != nil {
			// A candidate the model cannot speak for (typed ErrNoProfile —
			// e.g. a live store still cold for it) is skipped, not fatal:
			// the decision degrades to the profiled candidates.
			l = nil
		}
		ev.lats[i] = l
	}
	for pi, pref := range s.prefs {
		best := ev.best(pref, res)
		if best < 0 {
			continue
		}
		return Decision{
			Config:     s.cands[best].cfg,
			Predicted:  ev.bestM.Clone(),
			Preference: pi,
			PrefName:   pref.Name,
		}, nil
	}
	return Decision{}, ErrNoFeasible
}

// best evaluates one preference at res: prune by constraints, optimize the
// objective, and on an objective tie prefer the candidate that dominates.
// It returns the winning candidate's index (-1 if none is feasible),
// leaving its predicted metrics in ev.bestM.
func (ev *evaluation) best(pref Preference, res resource.Vector) int {
	s := ev.s
	higher := s.app.Metric(pref.Objective).Better == spec.HigherIsBetter
	best := -1
	var bestObj float64
candidates:
	for i, l := range ev.lats {
		if l == nil || l.PredictInto(res, ev.m) != nil {
			continue
		}
		for _, c := range pref.Constraints {
			if v, has := ev.m[c.Metric]; !has || !c.Satisfied(v) {
				continue candidates
			}
		}
		obj, has := ev.m[pref.Objective]
		if !has {
			continue
		}
		// Candidates are visited in key order. A later one takes the lead
		// with a strictly better objective, or with an equal one if it
		// dominates the incumbent; so no feasible candidate dominates the
		// winner, and only full ties fall to key order.
		better := obj < bestObj
		if higher {
			better = obj > bestObj
		}
		if best < 0 || better || obj == bestObj && s.dominates(ev.m, ev.bestM) {
			best, bestObj = i, obj
			ev.m, ev.bestM = ev.bestM, ev.m
		}
	}
	return best
}

// dominates reports whether predicted metrics a are at least as good as b
// on every metric the application declares, and strictly better on one,
// each in its own direction.
func (s *Scheduler) dominates(a, b spec.Metrics) bool {
	strict := false
	for _, m := range s.app.Metrics {
		x, okA := a[m.Name]
		y, okB := b[m.Name]
		if !okA || !okB || x == y {
			continue
		}
		if (x > y) != (m.Better == spec.HigherIsBetter) {
			return false
		}
		strict = true
	}
	return strict
}
