package scheduler_test

import (
	"math"
	"testing"
	"testing/quick"

	"tunable/internal/expt"
	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
)

// mixGrid is a 17 × 13 log grid over the application mix's operating
// range: 24–384 KB/s by quarter octaves × CPU share 0.05–0.20 by sixth
// octaves.
func mixGrid() []resource.Vector {
	var pts []resource.Vector
	for i := 0; i <= 16; i++ {
		for j := 0; j <= 12; j++ {
			pts = append(pts, resource.Vector{
				resource.Bandwidth: 24e3 * math.Pow(2, float64(i)/4),
				resource.CPU:       0.05 * math.Pow(2, float64(j)/6),
			})
		}
	}
	return pts
}

// dominates reports whether a is better-or-equal to b on every metric the
// application declares and strictly better on one, each in its direction.
func dominates(app *spec.App, a, b spec.Metrics) bool {
	strict := false
	for _, m := range app.Metrics {
		x, y := a[m.Name], b[m.Name]
		if x == y {
			continue
		}
		if (x > y) != (m.Better == spec.HigherIsBetter) {
			return false
		}
		strict = true
	}
	return strict
}

// dominatedPick names a candidate that satisfies the chosen preference's
// constraints at res and dominates the decision's configuration there, or
// returns "" when none does.
func dominatedPick(model perfdb.Model, cands []spec.Config, pref scheduler.Preference, d scheduler.Decision, res resource.Vector) string {
	for _, cfg := range cands {
		m, err := model.Predict(cfg, res)
		if err != nil || cfg.Equal(d.Config) {
			continue
		}
		feasible := true
		for _, c := range pref.Constraints {
			if v, has := m[c.Metric]; !has || !c.Satisfied(v) {
				feasible = false
			}
		}
		if feasible && dominates(model.App(), m, d.Predicted) {
			return cfg.Key()
		}
	}
	return ""
}

// TestNoDominatedPicksOverMixGrid: on every database the system builds,
// at no point of the mix's operating range does Select choose a
// configuration that another feasible candidate beats or equals on every
// metric. This is how footnote 1's maximal subset is enforced: at decision
// time, not by pruning the database. The mix's objectives are
// integer-valued (frame rate, resolution), so objective ties are the norm
// there.
func TestNoDominatedPicksOverMixGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the experiment and application databases")
	}
	for _, sub := range []struct {
		name  string
		db    func() (*perfdb.DB, error)
		prefs []scheduler.Preference
	}{
		{"fig5", expt.Fig5DB, []scheduler.Preference{
			{Name: "responsive", Constraints: []scheduler.Constraint{scheduler.AtMost("response_time", 1.0)}, Objective: "transmit_time"},
			{Name: "fastest", Objective: "transmit_time"},
		}},
		{"fig6a", expt.Fig6aDB, []scheduler.Preference{{Name: "min-transmit", Objective: "transmit_time"}}},
		{"fig6b", expt.Fig6bDB, []scheduler.Preference{
			{Name: "deadline-10s", Constraints: []scheduler.Constraint{scheduler.AtMost("transmit_time", 10)}, Objective: "resolution"},
			{Name: "fastest", Objective: "transmit_time"},
		}},
		{"video", refVideo.DB, refVideo.Preferences()},
		{"foveal", refFoveal.DB, refFoveal.Preferences()},
	} {
		db, err := sub.db()
		if err != nil {
			t.Fatal(err)
		}
		sched, err := scheduler.New(db.App(), db, sub.prefs)
		if err != nil {
			t.Fatal(err)
		}
		dominated := 0
		for _, res := range mixGrid() {
			d, err := sched.Select(res)
			if err != nil {
				t.Fatalf("%s at %s: %v", sub.name, res, err)
			}
			if by := dominatedPick(db, sched.Candidates(), sub.prefs[d.Preference], d, res); by != "" {
				if dominated++; dominated <= 3 {
					t.Errorf("%s at %s: chose %s, dominated by %s", sub.name, res, d.Config.Key(), by)
				}
			}
		}
		if dominated > 0 {
			t.Errorf("%s: %d of %d decisions dominated", sub.name, dominated, len(mixGrid()))
		}
	}
}

// tieApp has six configurations and three metrics, one per direction mix.
var tieApp = spec.MustParse(`
app ties;
control_parameters {
    enum c in {x, y, z};
    int l in {1, 2};
}
qos_metric {
    duration t minimize;
    scalar r maximize;
    scalar e minimize;
}
`)

// TestSelectNeverPicksDominatedProperty: on random small databases whose
// metrics take the values 0–2 (so objectives tie constantly), the
// configuration Select returns at a lattice point is dominated by no
// candidate that satisfies the same preference there.
func TestSelectNeverPicksDominatedProperty(t *testing.T) {
	cfgs := tieApp.Enumerate()
	bws := []float64{100e3, 200e3}
	prefs := []scheduler.Preference{
		{Name: "bounded", Constraints: []scheduler.Constraint{scheduler.AtMost("e", 1)}, Objective: "r"},
		{Name: "fastest", Objective: "t"},
	}
	prop := func(vals [6][2][3]uint8) bool {
		db := perfdb.New(tieApp)
		for i, cfg := range cfgs {
			for j, bw := range bws {
				v := vals[i][j]
				m := spec.Metrics{"t": float64(v[0] % 3), "r": float64(v[1] % 3), "e": float64(v[2] % 3)}
				if err := db.Add(cfg, resource.Vector{resource.Bandwidth: bw}, m); err != nil {
					t.Fatal(err)
				}
			}
		}
		sched, err := scheduler.New(tieApp, db, prefs)
		if err != nil {
			t.Fatal(err)
		}
		for _, bw := range bws {
			res := resource.Vector{resource.Bandwidth: bw}
			d, err := sched.Select(res)
			if err != nil {
				t.Fatal(err) // "fastest" is unconstrained: something is feasible
			}
			if by := dominatedPick(db, cfgs, prefs[d.Preference], d, res); by != "" {
				t.Logf("at %s chose %s %v, dominated by %s", res, d.Config.Key(), d.Predicted, by)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
