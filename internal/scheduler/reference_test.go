package scheduler_test

import (
	"errors"
	"math"
	"sort"
	"testing"

	"tunable/internal/apps"
	"tunable/internal/expt"
	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
)

// The reference oracle: Select as it was before the scheduler evaluated
// compiled lattices — one Model.Predict map per candidate per evaluation,
// the feasible set walked in key order with the dominance tie rule. The
// differential test below demands the same decision, bit for bit, from Scheduler.Select over the databases the
// experiments and the application mix run on.

func refSelect(model perfdb.Model, cands []spec.Config, prefs []scheduler.Preference, res resource.Vector) (scheduler.Decision, error) {
	for pi, pref := range prefs {
		best, bestM, found := refSelectForPref(model, cands, pref, res)
		if !found {
			continue
		}
		return scheduler.Decision{Config: best, Predicted: bestM, Preference: pi, PrefName: pref.Name}, nil
	}
	return scheduler.Decision{}, scheduler.ErrNoFeasible
}

func refSelectForPref(model perfdb.Model, cands []spec.Config, pref scheduler.Preference, res resource.Vector) (spec.Config, spec.Metrics, bool) {
	type scored struct {
		cfg spec.Config
		m   spec.Metrics
		obj float64
	}
	var feasible []scored
	for _, cfg := range cands {
		m, err := model.Predict(cfg, res)
		if err != nil {
			continue
		}
		ok := true
		for _, c := range pref.Constraints {
			v, has := m[c.Metric]
			if !has || !c.Satisfied(v) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		obj, has := m[pref.Objective]
		if !has {
			continue
		}
		feasible = append(feasible, scored{cfg: cfg, m: m, obj: obj})
	}
	if len(feasible) == 0 {
		return nil, nil, false
	}
	// Walk the feasible candidates in key order. One takes the lead with a
	// strictly better objective, or with an equal objective if it
	// dominates the leader: better-or-equal on every metric and strictly
	// better on one, each in its direction.
	sort.Slice(feasible, func(i, j int) bool { return feasible[i].cfg.Key() < feasible[j].cfg.Key() })
	app := model.App()
	higher := app.Metric(pref.Objective).Better == spec.HigherIsBetter
	lead := feasible[0]
	for _, c := range feasible[1:] {
		switch {
		case c.obj != lead.obj && (c.obj > lead.obj) == higher:
			lead = c
		case c.obj == lead.obj && refDominates(app, c.m, lead.m):
			lead = c
		}
	}
	return lead.cfg, lead.m, true
}

// refDominates reports whether a is better-or-equal to b on every declared
// metric present in both, and strictly better on at least one.
func refDominates(app *spec.App, a, b spec.Metrics) bool {
	strict := false
	for _, m := range app.Metrics {
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

// The applications profile their databases once per instance; sharing the
// instances keeps -count=N runs from re-profiling them.
var refVideo, refFoveal = apps.NewVideo(), apps.NewFoveal()

// sameDecision compares every field of two decisions, floats by bits.
func sameDecision(t *testing.T, where string, got, want scheduler.Decision) {
	t.Helper()
	if !got.Config.Equal(want.Config) {
		t.Fatalf("%s: chose %s, reference %s", where, got.Config.Key(), want.Config.Key())
	}
	if got.Preference != want.Preference || got.PrefName != want.PrefName {
		t.Fatalf("%s: preference %d %q, reference %d %q", where, got.Preference, got.PrefName, want.Preference, want.PrefName)
	}
	if len(got.Predicted) != len(want.Predicted) {
		t.Fatalf("%s: predicted %v, reference %v", where, got.Predicted, want.Predicted)
	}
	for name, w := range want.Predicted {
		if g, ok := got.Predicted[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: predicted %s=%v, reference %v", where, name, g, w)
		}
	}
}

// TestSelectMatchesReference sweeps CPU share × bandwidth — on, between
// and beyond the sampled values, and with a dimension missing — over the
// three experiment databases and both application databases, under the
// preferences those run with, and demands the reference's decision from
// Select and SelectDerated at every point.
func TestSelectMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the experiment and application databases")
	}
	type subject struct {
		name  string
		db    func() (*perfdb.DB, error)
		prefs []scheduler.Preference
	}
	video, foveal := refVideo, refFoveal
	subjects := []subject{
		{"fig5", expt.Fig5DB, []scheduler.Preference{ // Experiment 3
			{Name: "responsive", Constraints: []scheduler.Constraint{scheduler.AtMost("response_time", 1.0)}, Objective: "transmit_time"},
			{Name: "fastest", Objective: "transmit_time"},
		}},
		{"fig6a", expt.Fig6aDB, []scheduler.Preference{ // Experiment 1
			{Name: "min-transmit", Objective: "transmit_time"},
		}},
		{"fig6b", expt.Fig6bDB, []scheduler.Preference{ // Experiment 2
			{Name: "deadline-10s", Constraints: []scheduler.Constraint{scheduler.AtMost("transmit_time", 10)}, Objective: "resolution"},
			{Name: "fastest", Objective: "transmit_time"},
		}},
		{"video", video.DB, video.Preferences()},
		{"foveal", foveal.DB, foveal.Preferences()},
	}
	shares := append(resource.Linspace(0.02, 1.2, 9), 0.05, 0.1, 0.2, 0.4, 1.0)
	bws := []float64{24e3, 96e3, 200e3, 384e3, 500e3}
	for i := 0; i < 9; i++ { // log-spaced from 8e3 to 2e6
		bws = append(bws, 8e3*math.Pow(2e6/8e3, float64(i)/8))
	}
	for _, sub := range subjects {
		db, err := sub.db()
		if err != nil {
			t.Fatal(err)
		}
		sched, err := scheduler.New(db.App(), db, sub.prefs)
		if err != nil {
			t.Fatal(err)
		}
		cands := sched.Candidates()
		var points []resource.Vector
		for _, cpu := range shares {
			for _, bw := range bws {
				points = append(points, resource.Vector{resource.CPU: cpu, resource.Bandwidth: bw})
			}
			points = append(points, resource.Vector{resource.CPU: cpu})
		}
		points = append(points, resource.Vector{resource.Bandwidth: 200e3}, resource.Vector{})
		decided := 0
		for _, res := range points {
			for _, margin := range []float64{0, 0.2} {
				where := sub.name + " at " + res.String()
				planned := res
				got, gerr := sched.Select(res)
				if margin > 0 {
					where += " derated"
					planned = resource.Vector{}
					for k, v := range res {
						planned[k] = v * (1 - margin)
					}
					got, gerr = sched.SelectDerated(res, margin)
				}
				want, werr := refSelect(db, cands, sub.prefs, planned)
				if !errors.Is(gerr, werr) {
					t.Fatalf("%s: error %v, reference %v", where, gerr, werr)
				}
				if werr == nil {
					sameDecision(t, where, got, want)
					decided++
				}
			}
		}
		if decided < len(points) {
			t.Fatalf("%s: only %d of %d evaluations were feasible — the sweep misses the databases", sub.name, decided, 2*len(points))
		}
	}
}
