package main

import (
	"fmt"
	"os"
	"time"

	"tunable/internal/avis"
	"tunable/internal/expt"
	"tunable/internal/monitor"
	"tunable/internal/perfdb"
	"tunable/internal/perfstore"
	"tunable/internal/resource"
	"tunable/internal/sandbox"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
	"tunable/internal/vtime"
)

// Probes of the adaptation-loop layers: direct calls into their exported
// functions, timed from here, with the databases and at the resource points
// the workload that calls them visits.

// schedulerProbes records a scheduler.select, scheduler.select_derated and
// perfdb.predict span per round at each resource point, as children of
// parent, and returns the candidate count.
func schedulerProbes(rec *recorder, parent, rounds int, model perfdb.Model,
	prefs []scheduler.Preference, points []resource.Vector) (candidates int, err error) {
	sched, err := scheduler.New(model.App(), model, prefs)
	if err != nil {
		return 0, fmt.Errorf("scheduler probe: %w", err)
	}
	cfgs := sched.Candidates()
	for i := 0; i < rounds; i++ {
		res := points[i%len(points)]
		rec.time("scheduler.select", parent, i, func() { _, err = sched.Select(res) })
		if err != nil {
			return 0, fmt.Errorf("scheduler probe: Select at %s: %w", res, err)
		}
		rec.time("scheduler.select_derated", parent, i, func() { _, err = sched.SelectDerated(res, 0.2) })
		if err != nil {
			return 0, fmt.Errorf("scheduler probe: SelectDerated at %s: %w", res, err)
		}
		cfg := cfgs[i%len(cfgs)]
		rec.time("perfdb.predict", parent, i, func() { _, err = model.Predict(cfg, res) })
		if err != nil {
			return 0, fmt.Errorf("model probe: Predict %s at %s: %w", cfg.Key(), res, err)
		}
	}
	return len(cfgs), nil
}

// schedulerLayers turns those spans into metrics.
func schedulerLayers(L map[string]float64, rec *recorder, candidates, records int) {
	L["scheduler.select_us"] = rec.medianNS("scheduler.select") / 1e3
	L["scheduler.select_derated_us"] = rec.medianNS("scheduler.select_derated") / 1e3
	L["scheduler.candidates"] = float64(candidates)
	L["perfdb.predict_us"] = rec.medianNS("perfdb.predict") / 1e3
	L["perfdb.records"] = float64(records)
}

// vtimeProbes measures the simulation kernel the virtual-time workloads
// run on: timer events of sleeping processes, a channel rendezvous, and a
// metered compute call.
func vtimeProbes(L map[string]float64) error {
	const procs, sleeps = 64, 1000
	sim := vtime.NewSim()
	for i := 0; i < procs; i++ {
		sim.Spawn("sleeper", func(p *vtime.Proc) {
			for k := 0; k < sleeps; k++ {
				p.Sleep(time.Millisecond)
			}
		})
	}
	t0 := time.Now()
	if err := sim.Run(); err != nil {
		return fmt.Errorf("vtime probe: %w", err)
	}
	L["vtime.events_per_s"] = procs * sleeps / time.Since(t0).Seconds()

	const trips = 20000
	sim = vtime.NewSim()
	ping, pong := vtime.NewChan[int](sim, 0), vtime.NewChan[int](sim, 0)
	sim.Spawn("ping", func(p *vtime.Proc) {
		for k := 0; k < trips; k++ {
			ping.Send(p, k)
			pong.Recv(p)
		}
		ping.Close()
	})
	sim.Spawn("pong", func(p *vtime.Proc) {
		for {
			v, ok := ping.Recv(p)
			if !ok {
				return
			}
			pong.Send(p, v)
		}
	})
	t0 = time.Now()
	if err := sim.Run(); err != nil {
		return fmt.Errorf("vtime probe: %w", err)
	}
	L["vtime.chan_roundtrip_ns"] = float64(time.Since(t0)) / trips

	const calls = 20000
	sim = vtime.NewSim()
	host := sandbox.NewHost(sim, "probe", 450e6)
	sb, err := host.NewSandbox("probe", 0.5, 0)
	if err != nil {
		return fmt.Errorf("sandbox probe: %w", err)
	}
	sim.Spawn("compute", func(p *vtime.Proc) {
		for k := 0; k < calls; k++ {
			sb.Compute(p, 1e5)
		}
	})
	t0 = time.Now()
	if err := sim.Run(); err != nil {
		return fmt.Errorf("sandbox probe: %w", err)
	}
	L["sandbox.compute_call_ns"] = float64(time.Since(t0)) / calls
	return nil
}

// monitorProbe times the monitoring rounds of an agent set up as the
// experiments set theirs up — a CPU probe on the client sandbox and a
// bandwidth probe on the server's sending side, every 10 virtual ms — while
// a simulated client downloads images next to it, so the probes have
// activity to sample.
func monitorProbe(L map[string]float64, store *avis.ImageStore) error {
	w, err := avis.NewWorld(avis.WorldConfig{
		Side: expt.ImageSide, Levels: expt.Levels, Seeds: []int64{1}, Store: store,
		Bandwidth: 500e3, Params: avis.Params{DR: 320, Codec: "lzw", Level: 4},
	})
	if err != nil {
		return fmt.Errorf("monitor probe: %w", err)
	}
	const period = 10 * time.Millisecond
	mon := monitor.New(w.Sim, "probe",
		monitor.WithPeriod(period),
		monitor.WithWindow(500*time.Millisecond),
		monitor.WithHysteresis(5))
	mon.AddProbe(monitor.NewCPUProbe("client", w.ClientSB))
	mon.AddProbe(monitor.NewBandwidthProbe("net", w.Link.B()))
	var rounds []float64
	w.Sim.Spawn("monitor-probe", func(p *vtime.Proc) {
		for i := 0; i < 400; i++ { // 4 virtual seconds, inside the two downloads
			t0 := time.Now()
			mon.RunOnce(p.Now())
			rounds = append(rounds, float64(time.Since(t0)))
			p.Sleep(period)
		}
	})
	if _, err := w.RunSequence(2); err != nil {
		return fmt.Errorf("monitor probe: %w", err)
	}
	L["monitor.run_once_us"] = median(rounds) / 1e3
	L["monitor.samples"] = float64(mon.SampleCount())
	return nil
}

// perfstoreProbes measures the online model the drift run reads: warm and
// cold predictions, the ingest path, and a WAL save.
func perfstoreProbes(L map[string]float64, rec *recorder, prior *perfdb.DB, cfg spec.Config, res resource.Vector) error {
	fail := func(err error) error { return fmt.Errorf("perfstore probe: %w", err) }
	ps, err := perfstore.New(avis.Spec(), prior, perfstore.NewMemStore(), perfstore.Options{BatchSize: 1, Alpha: 0.5})
	if err != nil {
		return fail(err)
	}
	defer ps.Close()
	var m spec.Metrics
	predict := func() { m, err = ps.Predict(cfg, res) }
	for i := 0; i < 300; i++ {
		ps.InvalidateCache(cfg)
		rec.time("perfstore.predict_cold", -1, i, predict)
		if err != nil {
			return fail(err)
		}
		rec.time("perfstore.predict_warm", -1, i, predict)
		if err != nil {
			return fail(err)
		}
	}
	L["perfstore.predict_cold_us"] = rec.medianNS("perfstore.predict_cold") / 1e3
	L["perfstore.predict_warm_us"] = rec.medianNS("perfstore.predict_warm") / 1e3
	L["perfstore.allocs_per_predict_warm"] = allocsPer(1000, predict)

	// Samples that agree with the model, so the outlier filter accepts
	// every one and each is folded and persisted.
	for i := 0; i < 300; i++ {
		s := perfstore.Sample{Config: cfg, Resources: res, Observed: m, At: time.Duration(i) * time.Second, Source: "bench"}
		rec.time("perfstore.ingest", -1, i, func() {
			ps.Offer(s)
			ps.Flush()
		})
	}
	L["perfstore.ingest_us"] = rec.medianNS("perfstore.ingest") / 1e3
	_, ev := ps.CacheStats()
	L["perfstore.cache_evictions"] = float64(ev)

	prof, err := ps.Store().Load(cfg.Key())
	if err != nil {
		return fail(err)
	}
	// under the working directory: the benchmark writes nowhere else
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(buildDir, "wal-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	wal, err := perfstore.OpenWAL(dir, perfstore.WALOptions{})
	if err != nil {
		return fail(err)
	}
	for i := 0; i < 200; i++ {
		prof.Version++
		rec.time("perfstore.wal_save", -1, i, func() { err = wal.Save(prof) })
		if err != nil {
			wal.Close()
			return fail(err)
		}
	}
	if err := wal.Close(); err != nil {
		return fail(err)
	}
	L["perfstore.wal_save_us"] = rec.medianNS("perfstore.wal_save") / 1e3
	return nil
}

// arbitrationProbes times the two admission structures every mix session
// passes through, sized like the mix workload's pool.
func arbitrationProbes(L map[string]float64) error {
	arb, err := scheduler.NewArbiter(
		resource.Vector{resource.Bandwidth: mixLinkPool, resource.CPU: mixHosts},
		[]scheduler.ClassShare{{Class: "video", Weight: 1}, {Class: "foveal", Weight: 1}})
	if err != nil {
		return fmt.Errorf("arbiter probe: %w", err)
	}
	want := resource.Vector{resource.Bandwidth: 96e3, resource.CPU: 0.1}
	L["scheduler.arbiter_acquire_release_ns"] = nsPer(20000, func() {
		g, aerr := arb.Acquire("video", want)
		if aerr != nil {
			err = aerr
			return
		}
		arb.Release(g)
	})
	if err != nil {
		return fmt.Errorf("arbiter probe: %w", err)
	}

	sim := vtime.NewSim()
	adm := scheduler.NewAdmission()
	for i := 0; i < mixHosts; i++ {
		if err := adm.AddHost(sandbox.NewHost(sim, fmt.Sprintf("h%02d", i), 450e6)); err != nil {
			return fmt.Errorf("admission probe: %w", err)
		}
	}
	req := map[string]resource.Vector{
		"h00": {resource.CPU: 0.1},
		"h01": {resource.CPU: 0.05},
	}
	L["scheduler.admission_reserve_release_us"] = nsPer(5000, func() {
		r, rerr := adm.Reserve("probe", req)
		if rerr != nil {
			err = rerr
			return
		}
		r.Release()
	}) / 1e3
	if err != nil {
		return fmt.Errorf("admission probe: %w", err)
	}
	return nil
}
