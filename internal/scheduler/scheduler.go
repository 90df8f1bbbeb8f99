// Package scheduler implements the paper's resource scheduler
// (Section 6.2): given the performance database, measured resource
// characteristics, and an ordered list of user preference constraints, it
// prunes the candidate configurations down to those predicted to satisfy
// the constraints and picks the one that best satisfies the objective
// function. Preferences are examined in decreasing order; when one cannot
// be satisfied under current resources, the next is tried. The scheduler
// also derives, for the chosen configuration, the resource validity ranges
// the monitoring agent should watch.
package scheduler

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"tunable/internal/metrics"
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

// AtLeast bounds a metric from below.
func AtLeast(metric string, lo float64) Constraint {
	return Constraint{Metric: metric, Lo: lo, Hi: math.Inf(1)}
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
	// ValidRanges maps resource kinds to the band within which the chosen
	// configuration is predicted to keep satisfying the preference; the
	// monitoring agent arms its triggers with these.
	ValidRanges map[resource.Kind][2]float64
}

// Scheduler selects configurations for one tunable application. It runs
// over any perfdb.Model — the static profiled database or perfstore's
// live, refining store.
type Scheduler struct {
	app   *spec.App
	db    perfdb.Model
	prefs []Preference
	cands []candidate // in canonical key order

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mDecisionLatency *metrics.Histogram
	mSelects         *metrics.Counter
	mNoFeasible      *metrics.Counter
	mPruned          *metrics.Counter
	mNoProfile       *metrics.Counter
	mCandidates      *metrics.Gauge
}

// EnableMetrics instruments the scheduler. Metric families:
// sched_decision_seconds (wall-clock latency of Select — the scheduler's
// own compute cost, meaningful even under virtual time),
// sched_selects_total, sched_no_feasible_total,
// sched_candidates_pruned_total (candidates rejected by constraint pruning
// per decision), and sched_candidates.
func (s *Scheduler) EnableMetrics(reg *metrics.Registry) {
	s.mDecisionLatency = reg.Histogram("sched_decision_seconds",
		"Wall-clock latency of one scheduling decision.")
	s.mSelects = reg.Counter("sched_selects_total", "Scheduling decisions attempted.")
	s.mNoFeasible = reg.Counter("sched_no_feasible_total",
		"Decisions where no configuration satisfied any preference.")
	s.mPruned = reg.Counter("sched_candidates_pruned_total",
		"Candidate configurations rejected during constraint pruning.")
	s.mNoProfile = reg.Counter("sched_no_profile_skips_total",
		"Candidates skipped because the model holds no profile for them.")
	s.mCandidates = reg.Gauge("sched_candidates", "Size of the candidate set.")
	s.mCandidates.Set(float64(len(s.cands)))
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

// Preferences returns the preference list.
func (s *Scheduler) Preferences() []Preference { return s.prefs }

// Select picks the configuration best satisfying the highest-priority
// feasible preference under resource conditions res. It is safe for
// concurrent use.
func (s *Scheduler) Select(res resource.Vector) (Decision, error) {
	start := time.Now()
	s.mSelects.Inc()
	ev := s.newEvaluation()
	for pi, pref := range s.prefs {
		best, pruned := ev.best(pref, res)
		s.mPruned.Add(float64(pruned))
		if best < 0 {
			continue
		}
		d := Decision{
			Config:     s.cands[best].cfg,
			Predicted:  ev.bestM.Clone(),
			Preference: pi,
			PrefName:   pref.Name,
		}
		d.ValidRanges = ev.validRanges(best, pref, res)
		s.mDecisionLatency.Observe(time.Since(start).Seconds())
		return d, nil
	}
	s.mNoFeasible.Inc()
	s.mDecisionLatency.Observe(time.Since(start).Seconds())
	return Decision{}, ErrNoFeasible
}

// SelectDerated is the degraded-mode entry point: it derates every
// resource estimate by margin (0.2 plans against 80% of each estimate)
// before selecting. The monitoring agent calls this instead of Select
// while probes are stale — the estimates feeding it are then guesses,
// and the conservative failure mode is a configuration that underuses
// real resources, not one that overcommits imaginary ones. margin is
// clamped to [0, 1).
func (s *Scheduler) SelectDerated(res resource.Vector, margin float64) (Decision, error) {
	if margin < 0 {
		margin = 0
	}
	if margin >= 1 {
		margin = 0.99
	}
	derated := resource.Vector{}
	for k, v := range res {
		derated[k] = v * (1 - margin)
	}
	return s.Select(derated)
}

// evaluation is the working state of one Select: each candidate's compiled
// profile, resolved from the model once, and the metric maps the candidate
// predictions are written into, so the many evaluations of one decision —
// one per preference plus one per lattice step of the validity ranges —
// allocate nothing.
type evaluation struct {
	s         *Scheduler
	lats      []*perfdb.Lattice // per candidate; nil where the model has no profile
	noProfile int               // how many of those the model typed ErrNoProfile
	m, bestM  spec.Metrics      // prediction under evaluation; the best one of the last call to best
	probe     resource.Vector   // res with one kind moved along its lattice axis
}

func (s *Scheduler) newEvaluation() *evaluation {
	ev := &evaluation{
		s:     s,
		lats:  make([]*perfdb.Lattice, len(s.cands)),
		m:     spec.Metrics{},
		bestM: spec.Metrics{},
	}
	for i, c := range s.cands {
		l, err := s.db.Lattice(c.key)
		if err != nil {
			// A candidate the model cannot speak for (typed ErrNoProfile —
			// e.g. a live store still cold for it) is skipped, not fatal:
			// the decision degrades to the profiled candidates.
			if errors.Is(err, perfdb.ErrNoProfile) {
				ev.noProfile++
			}
			continue
		}
		ev.lats[i] = l
	}
	return ev
}

// best evaluates one preference at res: prune by constraints, optimize the
// objective, break ties deterministically by configuration key. It returns
// the winning candidate's index (-1 if none is feasible), leaving its
// predicted metrics in ev.bestM, and how many candidates were pruned.
func (ev *evaluation) best(pref Preference, res resource.Vector) (best, pruned int) {
	s := ev.s
	s.mNoProfile.Add(float64(ev.noProfile))
	higher := s.app.Metric(pref.Objective).Better == spec.HigherIsBetter
	best = -1
	var bestObj float64
	feasible := 0
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
		feasible++
		// Candidates are visited in key order, so on equal objectives the
		// earlier one keeps the lead.
		better := obj < bestObj
		if higher {
			better = obj > bestObj
		}
		if best < 0 || better {
			best, bestObj = i, obj
			ev.m, ev.bestM = ev.bestM, ev.m
		}
	}
	return best, len(ev.lats) - feasible
}

// validRanges derives, per resource kind in res, the contiguous band of
// values (holding other kinds fixed) within which the chosen candidate
// remains the scheduler's selection — i.e. it both keeps satisfying the
// preference's constraints and stays ahead of every alternative. Leaving
// the band in either direction therefore warrants a trigger: downward
// because the configuration fails, upward because a better configuration
// has become feasible. Bands are computed on the chosen profile's sample
// lattice; a band touching the lattice edge is left open in that direction
// (±Inf) since the database has no evidence of change beyond it.
func (ev *evaluation) validRanges(chosen int, pref Preference, res resource.Vector) map[resource.Kind][2]float64 {
	out := map[resource.Kind][2]float64{}
	ev.probe = res.Clone()
	for _, ax := range ev.lats[chosen].Axes() {
		kind, pts := ax.Kind, ax.Points
		cur, ok := res[kind]
		if !ok {
			continue
		}
		satisfies := func(v float64) bool {
			ev.probe[kind] = v
			best, _ := ev.best(pref, ev.probe)
			return best == chosen
		}
		// Index of the lattice point nearest the current value.
		idx := 0
		for i, p := range pts {
			if math.Abs(p-cur) < math.Abs(pts[idx]-cur) {
				idx = i
			}
		}
		lo, hi := idx, idx
		for lo-1 >= 0 && satisfies(pts[lo-1]) {
			lo--
		}
		for hi+1 < len(pts) && satisfies(pts[hi+1]) {
			hi++
		}
		ev.probe[kind] = cur
		band := [2]float64{pts[lo], pts[hi]}
		if lo == 0 {
			band[0] = math.Inf(-1)
		}
		if hi == len(pts)-1 {
			band[1] = math.Inf(1)
		}
		out[kind] = band
	}
	return out
}
