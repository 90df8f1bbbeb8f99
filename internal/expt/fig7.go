package expt

import (
	"fmt"
	"sync"
	"time"

	"tunable/internal/avis"
	"tunable/internal/faults"
	"tunable/internal/scheduler"
	"tunable/internal/trace"
)

// Experiment timing. The paper's images are ~4× our data volume, so its
// wall-clock landmarks scale accordingly: the paper drops the bandwidth at
// t=25 s with ~5 s images; ours take ~3 s, so the drop lands at t=12 s to
// leave the same ~4 images completed before the change (Section 7.2).
const (
	exp1DropAt = 12 * time.Second
	exp2DropAt = 15 * time.Second
	exp3DropAt = 12 * time.Second
)

// ExperimentResult bundles the adaptive run and its static baselines.
type ExperimentResult struct {
	Fig      *FigResult
	Adaptive RunResult
	StaticA  RunResult
	StaticB  RunResult
}

// worldRun is one world of an experiment, run from start to finish; a
// worldsRunner runs an experiment's three.
type (
	worldRun     func() (RunResult, error)
	worldsRunner func(adaptive, staticA, staticB worldRun) (*ExperimentResult, error)
)

// runWorlds runs an experiment's adaptive world and its two static
// baselines concurrently — each has its own simulator, and they share only
// the read-only image store — and returns the three results, or the first
// error in that order. The figure is assembled from them afterwards.
func runWorlds(adaptive, staticA, staticB worldRun) (*ExperimentResult, error) {
	var e ExperimentResult
	var errs [3]error
	var wg sync.WaitGroup
	for i, w := range []struct {
		run  worldRun
		into *RunResult
	}{{adaptive, &e.Adaptive}, {staticA, &e.StaticA}, {staticB, &e.StaticB}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			*w.into, errs[i] = w.run()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &e, nil
}

// experiment runs the scenario's adaptive world over its database and
// its two static baselines with run, and plots the outcome with figure.
func (sc scenario) experiment(run worldsRunner, figure func(*ExperimentResult) *FigResult) (*ExperimentResult, error) {
	db, err := sc.db()
	if err != nil {
		return nil, err
	}
	static := func(b baseline) worldRun {
		return func() (RunResult, error) { return runStatic(sc, b, NumImages) }
	}
	e, err := run(
		func() (RunResult, error) { return runAdaptive("adaptive", db, sc, NumImages) },
		static(sc.statics[0]), static(sc.statics[1]))
	if err != nil {
		return nil, err
	}
	e.Fig = figure(e)
	return e, nil
}

// step is a schedule that sets one resource of the targets to rate at the
// instant at and holds it for the rest of the run.
func step(seed uint64, at time.Duration, kind faults.Kind, target string, rate float64) faults.Schedule {
	return faults.NewSchedule(seed, faults.Event{At: at, Duration: time.Hour, Kind: kind, Target: target, Rate: rate})
}

// deadline maximizes resolution subject to a transmission-time bound in
// seconds, delivering fastest when nothing meets it.
func deadline(bound float64) []scheduler.Preference {
	return []scheduler.Preference{
		{
			Name:        fmt.Sprintf("deadline-%gs", bound),
			Constraints: []scheduler.Constraint{scheduler.AtMost("transmit_time", bound)},
			Objective:   "resolution",
		},
		fastest,
	}
}

// fastest is the fallback preference when nothing meets a constraint.
var fastest = scheduler.Preference{Name: "fastest", Objective: "transmit_time"}

// The scenarios of Experiment1, Experiment2 and Experiment3.
var (
	exp1 = scenario{
		db:    Fig6aDB,
		prefs: []scheduler.Preference{{Name: "min-transmit", Objective: "transmit_time"}},
		base:  avis.WorldConfig{Bandwidth: 500e3, ClientShare: 1.0},
		sched: step(0, exp1DropAt, faults.Bandwidth, "data", 50e3),
		statics: [2]baseline{
			{"lzw-only", avis.Params{DR: 320, Codec: "lzw", Level: 4}},
			{"bzw-only", avis.Params{DR: 320, Codec: "bzw", Level: 4}},
		},
	}
	exp2 = scenario{
		db:    Fig6bDB,
		prefs: deadline(10),
		base:  avis.WorldConfig{Bandwidth: 200e3, ClientShare: 0.9},
		sched: step(0, exp2DropAt, faults.CPU, "client", 0.4),
		statics: [2]baseline{
			{"level4-only", avis.Params{DR: 320, Codec: "bzw", Level: 4}},
			{"level3-only", avis.Params{DR: 320, Codec: "bzw", Level: 3}},
		},
	}
	exp3 = scenario{
		db: Fig5DB,
		prefs: []scheduler.Preference{
			{
				Name:        "responsive",
				Constraints: []scheduler.Constraint{scheduler.AtMost("response_time", 1.0)},
				Objective:   "transmit_time",
			},
			fastest,
		},
		base:  avis.WorldConfig{Bandwidth: 500e3, ClientShare: 0.9},
		sched: step(0, exp3DropAt, faults.CPU, "client", 0.4),
		statics: [2]baseline{
			{"fovea320-only", avis.Params{DR: 320, Codec: "lzw", Level: 4}},
			{"fovea80-only", avis.Params{DR: 80, Codec: "lzw", Level: 4}},
		},
	}
)

// figure plots the three runs' per-image metric against completion time.
func (e *ExperimentResult) figure(id, title, metric string, notes ...string) *FigResult {
	rec := trace.NewRecorder()
	for _, r := range []RunResult{e.Adaptive, e.StaticA, e.StaticB} {
		r.completionSeries(rec, metric)
	}
	return &FigResult{ID: id, Title: title, Rec: rec, Notes: notes}
}

// Experiment1 reproduces Section 7.2: the user preference is to minimize
// image transmission time; the bandwidth drops from 500 KB/s to 50 KB/s
// mid-run, and the framework must switch the compression method from LZW
// to BZW. The two static baselines hold each codec throughout.
func Experiment1() (*ExperimentResult, error) { return experiment1(runWorlds) }

func experiment1(run worldsRunner) (*ExperimentResult, error) {
	return exp1.experiment(run, func(e *ExperimentResult) *FigResult {
		return e.figure("fig7a", "Experiment 1: adapting the compression method to a bandwidth drop", "transmit_time",
			fmt.Sprintf("bandwidth 500 KB/s -> 50 KB/s at t=%s", exp1DropAt),
			fmt.Sprintf("totals: adaptive %s, lzw-only %s, bzw-only %s",
				seconds(e.Adaptive.Total), seconds(e.StaticA.Total), seconds(e.StaticB.Total)),
			fmt.Sprintf("adaptive switches: %d, final config %s", e.Adaptive.Switches, e.Adaptive.Final.Key()))
	})
}

// Experiment2 reproduces Section 7.3: image transmission must finish
// within 10 s while resolution is maximized; the client CPU share drops
// from 90% to 40% mid-run, and the framework must degrade the resolution
// from level 4 to level 3. Baselines hold level 4 and level 3.
func Experiment2() (*ExperimentResult, error) { return experiment2(runWorlds) }

func experiment2(run worldsRunner) (*ExperimentResult, error) {
	return exp2.experiment(run, func(e *ExperimentResult) *FigResult {
		return e.figure("fig7b", "Experiment 2: degrading image resolution as the CPU share drops", "transmit_time",
			fmt.Sprintf("client CPU share 0.9 -> 0.4 at t=%s; deadline 10 s; maximize resolution", exp2DropAt),
			fmt.Sprintf("adaptive switches: %d, final config %s", e.Adaptive.Switches, e.Adaptive.Final.Key()),
			fmt.Sprintf("deadline violations: adaptive %d, level4-only %d, level3-only %d",
				violations(e.Adaptive, 10), violations(e.StaticA, 10), violations(e.StaticB, 10)))
	})
}

// Experiment3 reproduces Section 7.4: round response time must stay below
// one second while overall transmission time is minimized; the client CPU
// share drops from 90% to 40% mid-run, and the framework must shrink the
// fovea size from 320 to 80. Baselines hold each fovea size.
func Experiment3() (*ExperimentResult, error) { return experiment3(runWorlds) }

func experiment3(run worldsRunner) (*ExperimentResult, error) {
	return exp3.experiment(run, func(e *ExperimentResult) *FigResult {
		return e.figure("fig7c", "Experiment 3: changing the fovea size as the CPU share drops (response time)", "response_time",
			fmt.Sprintf("client CPU share 0.9 -> 0.4 at t=%s; response bound 1 s; minimize transmit time", exp3DropAt),
			fmt.Sprintf("adaptive switches: %d, final config %s", e.Adaptive.Switches, e.Adaptive.Final.Key()))
	})
}

// Figure7d renders the transmission-time view of Experiment 3.
func Figure7d(e *ExperimentResult) *FigResult {
	return e.figure("fig7d", "Experiment 3: changing the fovea size as the CPU share drops (transmission time)", "transmit_time",
		fmt.Sprintf("totals: adaptive %s, fovea320-only %s, fovea80-only %s",
			seconds(e.Adaptive.Total), seconds(e.StaticA.Total), seconds(e.StaticB.Total)))
}

// violations counts images whose transmission exceeded the deadline.
func violations(r RunResult, deadlineSeconds float64) int {
	n := 0
	for _, st := range r.Stats {
		if st.TransmitTime.Seconds() > deadlineSeconds {
			n++
		}
	}
	return n
}

// Experiment1Distributed repeats Experiment 1 with genuinely distributed
// monitoring: the bandwidth is observed by an agent in the server
// instance, which on leaving the armed region sends its estimates to the
// client's agent as peer messages before they trigger the scheduler — the
// deployment shape Section 6.1 describes.
func Experiment1Distributed() (*ExperimentResult, error) {
	db, err := exp1.db()
	if err != nil {
		return nil, err
	}
	sc := exp1
	sc.distributed = true
	adaptive, err := runAdaptive("adaptive-distributed", db, sc, NumImages)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	adaptive.completionSeries(rec, "transmit_time")
	fig := &FigResult{
		ID:    "fig7a-distributed",
		Title: "Experiment 1 with distributed monitoring agents",
		Rec:   rec,
		Notes: []string{fmt.Sprintf("total %s, switches %d, final %s",
			seconds(adaptive.Total), adaptive.Switches, adaptive.Final.Key())},
	}
	return &ExperimentResult{Fig: fig, Adaptive: adaptive}, nil
}
