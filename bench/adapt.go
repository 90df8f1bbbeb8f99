package main

import (
	"fmt"
	"time"

	"tunable/internal/avis"
	"tunable/internal/core"
	"tunable/internal/expt"
	"tunable/internal/perfdb"
	"tunable/internal/perfstore"
	"tunable/internal/resource"
	"tunable/internal/scheduler"
)

// The instants at which Experiments 2 and the drift run perturb their
// resource (expt keeps them unexported); images that start at or after them
// are "post-perturbation" for the QoS pass ratio.
const (
	exp2DropAt  = 15 * time.Second
	exp2Bound   = 10.0 // seconds: Experiment 2's transmission deadline
	adaptPerOps = 4    // experiment calls per cycle
)

// adaptCycle is what one cycle of the four experiment calls returned.
type adaptCycle struct {
	exp   [3]*expt.ExperimentResult
	drift expt.RunResult
	// store of the drift run's online model, closed by the caller
	ps *perfstore.PerfStore
}

// runCycle makes the four calls, timing each as one op; rec, when non-nil,
// also records each as a root span (the traced run's parents).
func runCycle(seed uint64, rec *recorder, ops *[]float64) (*adaptCycle, error) {
	c := &adaptCycle{}
	call := func(i int, name string, fn func() error) error {
		var err error
		t0 := time.Now()
		rec.time("run."+name, -1, i, func() { err = fn() })
		*ops = append(*ops, ms(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	for i, fn := range []func() (*expt.ExperimentResult, error){expt.Experiment1, expt.Experiment2, expt.Experiment3} {
		i, fn := i, fn
		if err := call(i, fmt.Sprintf("exp%d", i+1), func() (err error) {
			c.exp[i], err = fn()
			return err
		}); err != nil {
			return nil, err
		}
	}
	err := call(3, "drift", func() (err error) {
		c.drift, c.ps, err = expt.RunDriftOnline(seed, perfstore.NewMemStore())
		return err
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// adaptive lists the cycle's four adaptive runs.
func (c *adaptCycle) adaptive() []expt.RunResult {
	return []expt.RunResult{c.exp[0].Adaptive, c.exp[1].Adaptive, c.exp[2].Adaptive, c.drift}
}

// virtualSeconds is the virtual time the cycle simulated: every run of
// every experiment.
func (c *adaptCycle) virtualSeconds() float64 {
	total := c.drift.Total
	for _, e := range c.exp {
		total += e.Adaptive.Total + e.StaticA.Total + e.StaticB.Total
	}
	return total.Seconds()
}

// check applies the workload's correctness rules to one cycle.
func (c *adaptCycle) check(res *result) {
	want := []struct {
		name string
		ok   func(avis.Params) bool
	}{
		{"c=bzw", func(p avis.Params) bool { return p.Codec == "bzw" }},
		{"l=3", func(p avis.Params) bool { return p.Level == 3 }},
		{"dR=80", func(p avis.Params) bool { return p.DR == 80 }},
	}
	for i, w := range want {
		a := c.exp[i].Adaptive
		p, err := avis.ParamsFromConfig(a.Final)
		if err != nil || !w.ok(p) {
			res.failed++
			res.problemf("experiment %d: final configuration %s, want %s", i+1, a.Final.Key(), w.name)
		}
	}
	for i, a := range c.adaptive() {
		if a.Switches < 1 {
			res.failed++
			res.problemf("adaptive run %d (%s) never switched configuration", i+1, a.Label)
		}
	}
}

// behaviour derives the exact virtual-time numbers of one cycle from the
// runs' event logs.
func (c *adaptCycle) behaviour(seed uint64) map[string]float64 {
	L := map[string]float64{}
	var react, apply []float64
	counts := map[core.EventKind]int{}
	var switches int64
	for _, run := range c.adaptive() {
		switches += run.Switches
		var trig, dec time.Duration = -1, -1
		for _, ev := range run.Events {
			counts[ev.Kind]++
			switch ev.Kind {
			case core.EventTrigger:
				// The first trigger since the last switch is the one that
				// caused the next: later ones only repeat the news.
				if trig < 0 {
					trig = ev.At
				}
			case core.EventDecision:
				dec = ev.At
			case core.EventSwitch:
				if trig >= 0 {
					react = append(react, (ev.At - trig).Seconds())
				}
				if dec >= 0 {
					apply = append(apply, (ev.At - dec).Seconds())
				}
				trig, dec = -1, -1
			case core.EventSteady:
				trig = -1 // that trigger changed nothing
			}
		}
	}
	L["core.react_vs"] = mean(react)
	L["steering.apply_vs"] = mean(apply)
	L["steering.switches"] = float64(switches)
	L["steering.rejects"] = float64(counts[core.EventReject])
	L["core.events.trigger"] = float64(counts[core.EventTrigger])
	L["core.events.decision"] = float64(counts[core.EventDecision])
	L["core.events.steady"] = float64(counts[core.EventSteady])
	L["core.events.no_feasible"] = float64(counts[core.EventNoFeasible])

	e1 := c.exp[0]
	best := e1.StaticA.Total
	if e1.StaticB.Total < best {
		best = e1.StaticB.Total
	}
	L["core.adapt_gain"] = best.Seconds() / e1.Adaptive.Total.Seconds()

	hits, post := expt.DeadlineHits(c.drift)
	for _, st := range c.exp[1].Adaptive.Stats {
		if st.Start >= exp2DropAt {
			post++
			if st.TransmitTime.Seconds() <= exp2Bound {
				hits++
			}
		}
	}
	if post > 0 {
		L["core.qos_pass_ratio"] = float64(hits) / float64(post)
	}

	// Drift: from the dip opening to the first decision that changes the
	// configuration (every decision after the initial one does).
	dip := expt.DriftSchedule(seed).Events[0].At
	for _, ev := range c.drift.Events {
		if ev.Kind == core.EventDecision && ev.At >= dip {
			L["monitor.detect_vs"] = (ev.At - dip).Seconds()
			break
		}
	}
	return L
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func runAdaptCycle(rc *runCtx) (*result, error) {
	res := &result{}
	seed := uint64(rc.seed)

	// Set-up is the three profile databases. expt builds each once per
	// process, so this workload has a single set-up sample; the hundreds of
	// simulated worlds it runs also warm every pool the cycles use.
	var built [3]float64
	var dbs [3]*perfdb.DB
	t0 := time.Now()
	for i, build := range []func() (*perfdb.DB, error){expt.Fig5DB, expt.Fig6aDB, expt.Fig6bDB} {
		b0 := time.Now()
		db, err := build()
		if err != nil {
			return nil, fmt.Errorf("profile database %d: %w", i, err)
		}
		dbs[i], built[i] = db, time.Since(b0).Seconds()
	}
	res.setup = []float64{time.Since(t0).Seconds()}

	var first *adaptCycle
	cycle := func(rec *recorder) func() int {
		return func() int {
			n := len(res.ops)
			c0 := time.Now()
			c, err := runCycle(seed, rec, &res.ops)
			res.attempted += len(res.ops) - n // the calls made, the failing one included
			if err != nil {
				res.failed++
				res.ops = res.ops[:len(res.ops)-1] // a failed call has no latency
				res.problemf("cycle: %v", err)
				return 0
			}
			res.units = append(res.units, ms(time.Since(c0)))
			c.check(res)
			if first == nil {
				first = c
			}
			c.ps.Close()
			return adaptPerOps
		}
	}

	if !rc.trace {
		res.measure(rc, 1, cycle(nil))
		return res, nil
	}

	// Traced run: one untraced cycle for reference, one with a parent span
	// per experiment call, then direct calls into the loop's layers with
	// the databases and at the resource points the experiments visit.
	res.measure(&runCtx{seconds: 0, quiet: true}, 1, cycle(nil))
	untraced := res.units[0]
	rec := newRecorder()
	t1 := time.Now()
	if cycle(rec)() == 0 {
		return res, nil
	}
	tracedWall := time.Since(t1)

	L := first.behaviour(seed)
	L["perfdb.build_fig5_s"], L["perfdb.build_fig6a_s"], L["perfdb.build_fig6b_s"] = built[0], built[1], built[2]
	L["vtime.vsec_per_s"] = first.virtualSeconds() / (untraced / 1e3)
	L["trace.overhead_ratio"] = ms(tracedWall) / untraced
	res.runtimeLayers(L)

	// Each experiment's scheduler, over its database, at its resource
	// point before and after the perturbation.
	deadline := []scheduler.Preference{
		{Name: "deadline-10s", Constraints: []scheduler.Constraint{scheduler.AtMost("transmit_time", 10)}, Objective: "resolution"},
		{Name: "fastest", Objective: "transmit_time"},
	}
	visits := []struct {
		db     *perfdb.DB
		prefs  []scheduler.Preference
		points []resource.Vector
	}{
		{dbs[1], []scheduler.Preference{{Name: "min-transmit", Objective: "transmit_time"}}, []resource.Vector{
			{resource.CPU: 1.0, resource.Bandwidth: 500e3}, {resource.CPU: 1.0, resource.Bandwidth: 50e3}}},
		{dbs[2], deadline, []resource.Vector{
			{resource.CPU: 0.9, resource.Bandwidth: 200e3}, {resource.CPU: 0.4, resource.Bandwidth: 200e3}}},
		{dbs[0], []scheduler.Preference{
			{Name: "responsive", Constraints: []scheduler.Constraint{scheduler.AtMost("response_time", 1.0)}, Objective: "transmit_time"},
			{Name: "fastest", Objective: "transmit_time"},
		}, []resource.Vector{
			{resource.CPU: 0.9, resource.Bandwidth: 500e3}, {resource.CPU: 0.4, resource.Bandwidth: 500e3}}},
	}
	candidates, records := 0, 0
	for i, v := range visits {
		// The traced cycle's four calls are spans 0..3 of rec, in order.
		n, err := schedulerProbes(rec, i, 100, v.db, v.prefs, v.points)
		if err != nil {
			return nil, err
		}
		candidates += n
		records += v.db.Len()
	}
	schedulerLayers(L, rec, candidates, records)
	err := perfstoreProbes(L, rec, dbs[2],
		avis.Params{DR: 320, Codec: "bzw", Level: 4}.Config(),
		resource.Vector{resource.CPU: 0.9, resource.Bandwidth: 200e3})
	if err != nil {
		return nil, err
	}
	store := avis.NewImageStore()
	if err := monitorProbe(L, store); err != nil {
		return nil, err
	}
	if err := vtimeProbes(L); err != nil {
		return nil, err
	}
	img, err := simImageWall(store)
	if err != nil {
		return nil, err
	}
	L["avis.sim_image_wall_ms"] = img
	res.layers, res.rec = L, rec
	return res, nil
}

// simImageWall is the wall time per image of the simulated session the
// experiments run on (World.RunSequence), at the experiments' geometry.
func simImageWall(store *avis.ImageStore) (float64, error) {
	const images = 6
	w, err := avis.NewWorld(avis.WorldConfig{
		Side: expt.ImageSide, Levels: expt.Levels, Seeds: []int64{1, 2, 3}, Store: store,
		Bandwidth: 500e3, Params: avis.Params{DR: 320, Codec: "lzw", Level: 4},
	})
	if err != nil {
		return 0, fmt.Errorf("sim session probe: %w", err)
	}
	if _, err := w.RunSequence(3); err != nil { // builds the pyramids
		return 0, fmt.Errorf("sim session probe: %w", err)
	}
	w, err = avis.NewWorld(w.Cfg)
	if err != nil {
		return 0, fmt.Errorf("sim session probe: %w", err)
	}
	t0 := time.Now()
	if _, err := w.RunSequence(images); err != nil {
		return 0, fmt.Errorf("sim session probe: %w", err)
	}
	return ms(time.Since(t0)) / images, nil
}
