package expt

import (
	"fmt"
	"math"
	"time"

	"tunable/internal/avis"
	"tunable/internal/faults"
	"tunable/internal/monitor"
	"tunable/internal/sandbox"
	"tunable/internal/trace"
	"tunable/internal/vtime"
)

// Figure3a reproduces the CPU-usage step trace: a CPU-bound toy
// application starts with an 80% share, drops to 40% at t=20 s, and rises
// to 60% at t=50 s; the achieved share — measured exactly as the paper's
// NT Performance Monitor would, from consumed CPU time — is sampled twice
// a second for 80 s.
func Figure3a() (*FigResult, error) {
	sim := vtime.NewSim()
	host := sandbox.NewHost(sim, "pii450", 450e6)
	sb, err := host.NewSandbox("toy", 0.8, 0)
	if err != nil {
		return nil, err
	}
	sim.Spawn("toy", func(p *vtime.Proc) {
		// A tight compute loop, far more work than the run needs.
		sb.Compute(p, 1e12)
	})
	drv, err := faults.NewDriver(sim, nil, map[string]*sandbox.Sandbox{"toy": sb}, faults.NewSchedule(0,
		faults.Event{At: 20 * time.Second, Duration: 30 * time.Second, Kind: faults.CPU, Rate: 0.4},
		faults.Event{At: 50 * time.Second, Duration: time.Hour, Kind: faults.CPU, Rate: 0.6}))
	if err != nil {
		return nil, err
	}
	drv.Install()
	rec := trace.NewRecorder()
	series := rec.Series("achieved-share", "")
	probe := monitor.NewCPUProbe("toy", sb)
	sim.Spawn("sampler", func(p *vtime.Proc) {
		for p.Now() < 80*time.Second {
			p.Sleep(500 * time.Millisecond)
			if v, ok := probe.Sample(p.Now()); ok {
				series.Add(p.Now(), v)
			}
		}
		sim.Stop()
	})
	err = sim.Run()
	sim.Close() // the toy is parked mid-Compute
	if err != nil && err != vtime.ErrStopped {
		return nil, err
	}
	return &FigResult{
		ID:    "fig3a",
		Title: "CPU share step response under the virtual execution environment",
		Rec:   rec,
		Notes: []string{"share configured 0.80 (t<20s), 0.40 (20s-50s), 0.60 (t>50s)"},
	}, nil
}

// Figure3b compares measured runtimes in the testbed against the expected
// runtime (full-share time divided by the share) for shares 10%–100%.
func Figure3b() (*FigResult, error) {
	const work = 900e6 // 2 s at full speed on the 450 MHz host
	measure := func(share float64) (time.Duration, error) {
		sim := vtime.NewSim()
		host := sandbox.NewHost(sim, "pii450", 450e6)
		sb, err := host.NewSandbox("toy", share, 0)
		if err != nil {
			return 0, err
		}
		var elapsed time.Duration
		sim.Spawn("toy", func(p *vtime.Proc) {
			start := p.Now()
			sb.Compute(p, work)
			elapsed = p.Now() - start
		})
		if err := sim.Run(); err != nil {
			return 0, err
		}
		return elapsed, nil
	}
	res := &FigResult{
		ID:      "fig3b",
		Title:   "measured vs expected execution time across CPU shares",
		Headers: []string{"share", "measured(s)", "expected(s)", "error(%)"},
	}
	// Expected time is the physical-machine time normalized by the share
	// (the paper's definition); the physical reference is the uncontended
	// ideal work/speed.
	ideal := time.Duration(work / 450e6 * float64(time.Second))
	for _, share := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		m, err := measure(share)
		if err != nil {
			return nil, err
		}
		expected := time.Duration(float64(ideal) / share)
		errPct := 100 * (m.Seconds() - expected.Seconds()) / expected.Seconds()
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.1f", share), seconds(m), seconds(expected),
			fmt.Sprintf("%+.2f", errPct),
		})
	}
	res.Notes = append(res.Notes,
		"expected = full-share time / share; deviations stem from OS activity and scheduling jitter")
	return res, nil
}

// machineModel describes a physical machine the testbed must emulate.
type machineModel struct {
	name  string
	speed float64
}

// The paper's machines; the testbed host is the PII 450.
var machines = []machineModel{
	{name: "pii333", speed: 333e6},
	{name: "ppro200", speed: 200e6},
}

// Figure4a compares a simple CPU-bound application running on slower
// physical machines against the testbed on a PII 450 configured with the
// corresponding share (the ratio of processor speeds).
func Figure4a() (*FigResult, error) {
	const work = 1350e6 // 3 s at full speed on the 450 MHz host
	run := func(hostSpeed, share float64) (time.Duration, error) {
		sim := vtime.NewSim()
		host := sandbox.NewHost(sim, "host", hostSpeed)
		sb, err := host.NewSandbox("app", share, 0)
		if err != nil {
			return 0, err
		}
		var elapsed time.Duration
		sim.Spawn("app", func(p *vtime.Proc) {
			start := p.Now()
			sb.Compute(p, work)
			elapsed = p.Now() - start
		})
		if err := sim.Run(); err != nil {
			return 0, err
		}
		return elapsed, nil
	}
	res := &FigResult{
		ID:      "fig4a",
		Title:   "testbed emulation of slower machines, simple application",
		Headers: []string{"machine", "physical(s)", "testbed(s)", "error(%)"},
	}
	for _, m := range machines {
		physical, err := run(m.speed, 1.0)
		if err != nil {
			return nil, err
		}
		testbed, err := run(450e6, m.speed/450e6)
		if err != nil {
			return nil, err
		}
		errPct := 100 * math.Abs(testbed.Seconds()-physical.Seconds()) / physical.Seconds()
		res.Rows = append(res.Rows, []string{
			m.name, seconds(physical), seconds(testbed), fmt.Sprintf("%.2f", errPct),
		})
	}
	return res, nil
}

// Figure4b repeats the comparison with the full visualization application:
// the client runs either on the slower machine or under the testbed on a
// PII 450 with the speed-ratio share; the server is a PII 450 behind a
// 1 MB/s link in both cases.
func Figure4b() (*FigResult, error) {
	run := func(clientSpeed, share float64) (time.Duration, error) {
		w, err := avis.NewWorld(avis.WorldConfig{
			Side:        ImageSide,
			Levels:      Levels,
			Seeds:       []int64{1},
			Store:       store,
			ClientSpeed: clientSpeed,
			ClientShare: share,
			Bandwidth:   1e6,
			Params:      avis.Params{DR: 320, Codec: "lzw", Level: 4},
		})
		if err != nil {
			return 0, err
		}
		stats, err := w.RunSequence(1)
		if err != nil {
			return 0, err
		}
		return stats[0].TransmitTime, nil
	}
	res := &FigResult{
		ID:      "fig4b",
		Title:   "testbed emulation of slower machines, visualization application",
		Headers: []string{"machine", "physical(s)", "testbed(s)", "error(%)"},
	}
	for _, m := range machines {
		physical, err := run(m.speed, 1.0)
		if err != nil {
			return nil, err
		}
		testbed, err := run(450e6, m.speed/450e6)
		if err != nil {
			return nil, err
		}
		errPct := 100 * math.Abs(testbed.Seconds()-physical.Seconds()) / physical.Seconds()
		res.Rows = append(res.Rows, []string{
			m.name, seconds(physical), seconds(testbed), fmt.Sprintf("%.2f", errPct),
		})
	}
	res.Notes = append(res.Notes,
		"waiting time (network reception) is unaffected by client CPU, so times are far below CPU-share scaling, as in the paper")
	return res, nil
}
