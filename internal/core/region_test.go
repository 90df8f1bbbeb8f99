package core_test

import (
	"math"
	"testing"
	"time"

	"tunable/internal/apps"
	"tunable/internal/core"
	"tunable/internal/monitor"
	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
	"tunable/internal/steering"
	"tunable/internal/vtime"
)

// mixGrid is a 17 × 13 log grid over the application mix's operating
// range: 24–384 KB/s by quarter octaves × CPU share 0.05–0.20 by sixth
// octaves. Any two of its points differ by at least 12 % along one axis,
// far beyond the monitor's tolerance, so every move is judged afresh.
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

// The applications profile their databases once per instance; sharing the
// instances keeps -count=N runs from re-profiling them.
var video, foveal = apps.NewVideo(), apps.NewFoveal()

// TestArmedRegionIsTheDecisionRegion: over the mix grid, an agent armed by
// the framework at each start point fires at exactly the points where
// Select would choose another configuration — across preference tiers,
// diagonally and between lattices — and nowhere else.
func TestArmedRegionIsTheDecisionRegion(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the application databases")
	}
	for _, sub := range []struct {
		name  string
		db    func() (*perfdb.DB, error)
		prefs []scheduler.Preference
	}{
		{"video", video.DB, video.Preferences()},
		{"foveal", foveal.DB, foveal.Preferences()},
	} {
		db, err := sub.db()
		if err != nil {
			t.Fatal(err)
		}
		sched, err := scheduler.New(db.App(), db, sub.prefs)
		if err != nil {
			t.Fatal(err)
		}
		grid := mixGrid()
		chosen := make([]spec.Config, len(grid)) // nil where nothing is feasible
		for i, res := range grid {
			if d, err := sched.Select(res); err == nil {
				chosen[i] = d.Config
			}
		}

		sim := vtime.NewSim()
		mon := monitor.New(sim, sub.name, monitor.WithHysteresis(1), monitor.WithWindow(0))
		var truth resource.Vector
		for _, k := range []resource.Kind{resource.CPU, resource.Bandwidth} {
			mon.AddProbe(&monitor.OracleProbe{K: k,
				Fn: func(time.Duration) (float64, bool) { return truth[k], true }})
		}
		steer, err := steering.New(sim, db.App(), chosen[len(grid)-1])
		if err != nil {
			t.Fatal(err)
		}
		fw, err := core.New(sim, core.Config{Scheduler: sched, Monitor: mon, Steering: steer})
		if err != nil {
			t.Fatal(err)
		}
		now := time.Duration(0)
		fires := func(at resource.Vector) bool {
			truth = at
			now += time.Millisecond
			mon.RunOnce(now)
			_, _, fired := mon.Triggers().TryRecv()
			return fired
		}

		changes, missed, spurious := 0, 0, 0
		for i, start := range grid {
			if chosen[i] == nil {
				continue
			}
			if _, err := fw.SelectInitial(start); err != nil {
				t.Fatal(err)
			}
			if fires(start) {
				t.Fatalf("%s: fired at its own start point %s", sub.name, start)
			}
			for j, end := range grid {
				changed := chosen[j] == nil || !chosen[j].Equal(chosen[i])
				fired := fires(end)
				if changed {
					changes++
				}
				switch {
				case changed && !fired:
					if missed++; missed <= 3 {
						t.Errorf("%s: armed at %s (%s), no trigger at %s where Select picks %v",
							sub.name, start, chosen[i].Key(), end, chosen[j])
					}
				case fired && !changed:
					if spurious++; spurious <= 3 {
						t.Errorf("%s: armed at %s (%s), trigger at %s where Select still picks it",
							sub.name, start, chosen[i].Key(), end)
					}
				}
			}
		}
		if missed+spurious > 0 {
			t.Errorf("%s: %d of %d decision changes missed, %d spurious triggers", sub.name, missed, changes, spurious)
		}
		if changes == 0 {
			t.Fatalf("%s: Select never changes over the grid, so the test proves nothing", sub.name)
		}
	}
}
