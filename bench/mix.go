package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"tunable/internal/apps"
	"tunable/internal/resource"
)

// Shape of the mix: a pool big enough that every session is admitted, small
// enough that the classes contend for the link and plans are derated.
const (
	mixHosts        = 16
	mixLinkPool     = 4.8e6
	mixVideo        = 16
	mixFoveal       = 8
	mixVideoEvery   = 75 * time.Millisecond
	mixFovealEvery  = 125 * time.Millisecond
	mixChaosHorizon = 20 * time.Second
)

// mixApps is one pair of application instances; each instance profiles its
// own database once, so a fresh pair is a fresh set-up.
type mixApps struct {
	video  *apps.Video
	foveal *apps.Foveal
}

func newMixApps() (*mixApps, error) {
	m := &mixApps{video: apps.NewVideo(), foveal: apps.NewFoveal()}
	if _, err := m.video.DB(); err != nil {
		return nil, fmt.Errorf("video profile: %w", err)
	}
	if _, err := m.foveal.DB(); err != nil {
		return nil, fmt.Errorf("foveal profile: %w", err)
	}
	return m, nil
}

// config is the harness configuration of one run: seed picks arrivals and
// session streams, chaos replays the seeded fault schedule on top.
func (m *mixApps) config(seed uint64, chaos bool, video, foveal int) apps.HarnessConfig {
	cfg := apps.HarnessConfig{Seed: seed, Hosts: mixHosts, LinkPool: mixLinkPool}
	if video > 0 {
		cfg.Classes = append(cfg.Classes, apps.ClassConfig{App: m.video, Sessions: video, ArrivalEvery: mixVideoEvery})
	}
	if foveal > 0 {
		cfg.Classes = append(cfg.Classes, apps.ClassConfig{App: m.foveal, Sessions: foveal, ArrivalEvery: mixFovealEvery})
	}
	if chaos {
		s := apps.MixChaos(seed, mixChaosHorizon)
		cfg.Chaos = &s
	}
	return cfg
}

// mixTotals accumulates the class reports of many runs.
type mixTotals struct {
	runs              int
	requested, passed int
	switches, derated int64
	virtualSeconds    float64
	failedClasses     int
}

func (t *mixTotals) add(rep *apps.MixReport) {
	t.runs++
	t.virtualSeconds += rep.VirtualSeconds
	for _, c := range rep.Classes {
		t.requested += c.Requested
		t.passed += c.Passed
		t.switches += c.Switches
		t.derated += int64(c.DeratedPlans)
		if c.Failed > 0 {
			t.failedClasses++
		}
	}
}

func runMixContention(rc *runCtx) (*result, error) {
	res := &result{}
	var m *mixApps
	_, err := res.timeSetup(rc, func() (func(), error) {
		var err error
		m, err = newMixApps()
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	video, foveal := rc.scale(mixVideo, 4), rc.scale(mixFoveal, 2)
	// Seeds per pass; each runs clean, then under chaos. A dozen, because
	// what a run costs depends on its seed (one long partition adds a fifth
	// to its allocations) and a pass should not hinge on one of them.
	seeds := rc.scale(12, 1)

	// Warm-up, off the clock: a seed run twice must report byte-identically,
	// clean and under chaos.
	for _, chaos := range []bool{false, true} {
		var prev []byte
		for k := 0; k < 2; k++ {
			res.attempted++
			rep, err := apps.RunMix(m.config(uint64(rc.seed), chaos, video, foveal))
			if err != nil {
				res.failed++
				return res, fmt.Errorf("warm-up RunMix: %w", err)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				return nil, err
			}
			if k == 1 && !bytes.Equal(prev, b) {
				res.failed++
				res.problemf("seed %d chaos=%v: two runs report differently", rc.seed, chaos)
			}
			prev = b
		}
	}

	var totals mixTotals
	pass := func() int {
		n := 0
		for s := 0; s < seeds; s++ {
			u0 := time.Now()
			ok := true
			for _, chaos := range []bool{false, true} {
				res.attempted++
				t0 := time.Now()
				rep, err := apps.RunMix(m.config(uint64(rc.seed)+uint64(s), chaos, video, foveal))
				d := time.Since(t0)
				if err != nil {
					res.failed++
					res.problemf("RunMix seed %d chaos=%v: %v", rc.seed+int64(s), chaos, err)
					ok = false
					continue
				}
				before := totals.failedClasses
				totals.add(rep)
				if totals.failedClasses > before {
					res.failed++
					res.problemf("RunMix seed %d chaos=%v: a class reports failed sessions", rc.seed+int64(s), chaos)
					ok = false
					continue
				}
				res.ops = append(res.ops, ms(d))
				n++
			}
			if ok {
				res.units = append(res.units, ms(time.Since(u0)))
			}
		}
		return n
	}
	if !rc.trace {
		res.measure(rc, 2, pass)
		return res, nil
	}

	// Traced run: a reference pass; then direct calls into the layers a
	// mix leans on. RunMix is one call from out here, so it is its own
	// parent span and there is nothing to replay inside it.
	res.measure(rc.quarter(), 1, pass)
	untraced := median(res.ops)
	ref := totals
	rec := newRecorder()
	for s := 0; s < seeds; s++ {
		for _, chaos := range []bool{false, true} {
			res.attempted++
			var err error
			rec.time("run.mix", -1, s, func() {
				_, err = apps.RunMix(m.config(uint64(rc.seed)+uint64(s), chaos, video, foveal))
			})
			if err != nil {
				res.failed++
				return res, fmt.Errorf("traced RunMix: %w", err)
			}
		}
	}

	L := map[string]float64{}
	runs := sortedCopy(res.ops)
	L["apps.runmix_ms"] = quantile(runs, 0.5)
	L["apps.runmix_p95_ms"] = quantile(runs, 0.95)
	L["apps.switches_per_run"] = float64(ref.switches) / float64(ref.runs)
	L["apps.derated_plans_per_run"] = float64(ref.derated) / float64(ref.runs)
	if ref.requested > 0 {
		L["apps.qos_pass_ratio"] = float64(ref.passed) / float64(ref.requested)
	}
	var wall float64
	for _, p := range res.passes {
		wall += p.wall
	}
	L["vtime.vsec_per_s"] = ref.virtualSeconds / wall
	L["trace.overhead_ratio"] = rec.medianNS("run.mix") / 1e6 / untraced
	res.runtimeLayers(L)

	// One class alone, for the per-session cost of each application.
	for _, one := range []struct {
		name          string
		video, foveal int
	}{{"apps.video_session_ms", video, 0}, {"apps.foveal_session_ms", 0, foveal}} {
		var per []float64
		for k := 0; k < 5; k++ {
			t0 := time.Now()
			if _, err := apps.RunMix(m.config(uint64(rc.seed), false, one.video, one.foveal)); err != nil {
				return nil, fmt.Errorf("single-class RunMix: %w", err)
			}
			per = append(per, ms(time.Since(t0))/float64(one.video+one.foveal))
		}
		L[one.name] = median(per)
	}
	var perRun []float64
	for _, p := range res.passes {
		perRun = append(perRun, float64(p.mallocs)/float64(p.ops))
	}
	L["apps.allocs_per_session"] = median(perRun) / float64(video+foveal)

	// Each class's scheduler over its own profile, at points inside the
	// per-session operating range the arbiter hands out.
	points := []resource.Vector{
		{resource.Bandwidth: 192e3, resource.CPU: 0.10},
		{resource.Bandwidth: 96e3, resource.CPU: 0.05},
		{resource.Bandwidth: 300e3, resource.CPU: 0.20},
	}
	candidates, records := 0, 0
	for _, app := range []apps.Application{m.video, m.foveal} {
		db, err := app.DB()
		if err != nil {
			return nil, err
		}
		n, err := schedulerProbes(rec, -1, 150, db, app.Preferences(), points)
		if err != nil {
			return nil, err
		}
		candidates += n
		records += db.Len()
	}
	schedulerLayers(L, rec, candidates, records)
	if err := arbitrationProbes(L); err != nil {
		return nil, err
	}
	if err := vtimeProbes(L); err != nil {
		return nil, err
	}
	res.layers, res.rec = L, rec
	return res, nil
}
