package monitor

import (
	"math"
	"testing"
	"time"

	"tunable/internal/netem"
	"tunable/internal/prng"
	"tunable/internal/resource"
	"tunable/internal/sandbox"
	"tunable/internal/vtime"
)

func TestCPUProbeEstimatesShare(t *testing.T) {
	sim := vtime.NewSim()
	h := sandbox.NewHost(sim, "h", 100e6, sandbox.WithOSLoad(0))
	sb, _ := h.NewSandbox("app", 0.4, 0)
	probe := NewCPUProbe("client", sb)
	var est float64
	var ok bool
	sim.Spawn("app", func(p *vtime.Proc) {
		sb.Compute(p, 40e6) // 1 s of wall time at 40% share
	})
	sim.Spawn("sampler", func(p *vtime.Proc) {
		p.Sleep(time.Second)
		est, ok = probe.Sample(p.Now())
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no observation")
	}
	if math.Abs(est-0.4) > 0.01 {
		t.Fatalf("estimated share %.3f, want ~0.4", est)
	}
}

func TestCPUProbeIdleReportsNotOK(t *testing.T) {
	sim := vtime.NewSim()
	h := sandbox.NewHost(sim, "h", 100e6)
	sb, _ := h.NewSandbox("app", 0.4, 0)
	probe := NewCPUProbe("client", sb)
	if _, ok := probe.Sample(0); ok {
		t.Fatal("idle app produced an observation")
	}
}

func TestBandwidthProbe(t *testing.T) {
	sim := vtime.NewSim()
	l := netem.NewLink(sim, "lan", 200_000, netem.WithLatency(0))
	probe := NewBandwidthProbe("client", l.A())
	var est float64
	var ok bool
	sim.Spawn("sender", func(p *vtime.Proc) {
		l.A().Send(p, make([]byte, 100_000))
		est, ok = probe.Sample(p.Now())
	})
	sim.Spawn("receiver", func(p *vtime.Proc) { l.B().Recv(p) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no observation")
	}
	if math.Abs(est-200_000)/200_000 > 0.02 {
		t.Fatalf("estimated bandwidth %.0f, want ~200000", est)
	}
}

func TestAgentWindowedEstimate(t *testing.T) {
	sim := vtime.NewSim()
	a := New(sim, "mon", WithPeriod(10*time.Millisecond), WithWindow(100*time.Millisecond))
	val := 0.8
	a.AddProbe(&OracleProbe{K: resource.CPU, Fn: func(time.Duration) (float64, bool) {
		return val, true
	}})
	a.Start()
	sim.Spawn("driver", func(p *vtime.Proc) {
		p.Sleep(200 * time.Millisecond)
		snap := a.Snapshot()
		if math.Abs(snap[resource.CPU]-0.8) > 1e-9 {
			t.Errorf("estimate %v", snap[resource.CPU])
		}
		// Step the ground truth; windowed mean takes ~window to converge.
		val = 0.4
		p.Sleep(50 * time.Millisecond)
		mid := a.Snapshot()[resource.CPU]
		if mid <= 0.4 || mid >= 0.8 {
			t.Errorf("mid-window estimate %v not between old and new", mid)
		}
		p.Sleep(150 * time.Millisecond)
		if got := a.Snapshot()[resource.CPU]; math.Abs(got-0.4) > 1e-9 {
			t.Errorf("converged estimate %v", got)
		}
		a.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if a.SampleCount() == 0 {
		t.Fatal("no samples")
	}
}

// cpuWithin is a region: CPU estimates in [lo, hi].
func cpuWithin(lo, hi float64) func(resource.Vector) bool {
	return func(v resource.Vector) bool {
		cpu, ok := v[resource.CPU]
		return ok && cpu >= lo && cpu <= hi
	}
}

func TestAgentTriggersOnRangeViolation(t *testing.T) {
	sim := vtime.NewSim()
	a := New(sim, "mon", WithPeriod(10*time.Millisecond), WithWindow(50*time.Millisecond), WithHysteresis(3))
	val := 0.9
	a.AddProbe(&OracleProbe{K: resource.CPU, Fn: func(time.Duration) (float64, bool) {
		return val, true
	}})
	a.Arm(cpuWithin(0.7, 1.0))
	a.Start()
	var trig Trigger
	var fired bool
	sim.Spawn("listener", func(p *vtime.Proc) {
		tr, ok, ready := a.Triggers().RecvTimeout(p, 2*time.Second)
		fired = ok && ready
		trig = tr
		a.Stop()
	})
	sim.Spawn("perturber", func(p *vtime.Proc) {
		p.Sleep(300 * time.Millisecond)
		val = 0.3
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("no trigger")
	}
	cpu, ok := trig.Estimate[resource.CPU]
	if !ok || trig.Reason == "" {
		t.Fatalf("trigger %+v", trig)
	}
	if trig.At < 300*time.Millisecond {
		t.Fatalf("trigger fired before the perturbation at %v", trig.At)
	}
	if cpu > 0.7 {
		t.Fatalf("trigger value %v inside range", cpu)
	}
}

func TestAgentHysteresisSuppressesBlips(t *testing.T) {
	sim := vtime.NewSim()
	a := New(sim, "mon", WithPeriod(10*time.Millisecond), WithWindow(10*time.Millisecond), WithHysteresis(5))
	tick := 0
	a.AddProbe(&OracleProbe{K: resource.CPU, Fn: func(time.Duration) (float64, bool) {
		tick++
		if tick%7 == 0 { // a single-sample blip every 7 samples
			return 0.1, true
		}
		return 0.9, true
	}})
	a.Arm(cpuWithin(0.5, 1.0))
	a.Start()
	sim.Spawn("driver", func(p *vtime.Proc) {
		p.Sleep(2 * time.Second)
		a.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, _, ready := a.Triggers().TryRecv(); ready {
		t.Fatal("hysteresis failed to suppress blips")
	}
}

func TestAgentRangeManagement(t *testing.T) {
	sim := vtime.NewSim()
	a := New(sim, "mon", WithHysteresis(1), WithPeriod(10*time.Millisecond), WithWindow(10*time.Millisecond))
	a.AddProbe(&OracleProbe{K: resource.CPU, Fn: func(time.Duration) (float64, bool) { return 0.2, true }})
	a.Arm(cpuWithin(0.5, 1.0))
	a.Arm(nil) // disarms
	a.RunOnce(time.Millisecond)
	if _, _, ready := a.Triggers().TryRecv(); ready {
		t.Fatal("disarmed region still triggers")
	}
	a.Arm(cpuWithin(0.5, 1.0))
	a.RunOnce(2 * time.Millisecond)
	if _, _, ready := a.Triggers().TryRecv(); !ready {
		t.Fatal("re-armed region did not trigger")
	}
	a.Arm(nil)
	a.RunOnce(3 * time.Millisecond)
	if _, _, ready := a.Triggers().TryRecv(); ready {
		t.Fatal("disarmed region still triggers")
	}
}

// The armed region is evaluated only when an estimate has moved by more
// than tolerance since the last evaluation; every other round keeps the
// last verdict, and a kept out-of-region verdict still counts towards
// hysteresis.
func TestRegionEvaluatedOnlyOnMovement(t *testing.T) {
	a := New(vtime.NewSim(), "mon", WithHysteresis(3), WithWindow(time.Millisecond))
	val := 0.8
	a.AddProbe(&OracleProbe{K: resource.CPU, Fn: func(time.Duration) (float64, bool) { return val, true }})
	evals := 0
	inside := cpuWithin(0.5, 1.0)
	a.Arm(func(v resource.Vector) bool { evals++; return inside(v) })
	now := time.Duration(0)
	round := func() {
		now += DefaultPeriod
		a.RunOnce(now)
	}
	round() // arming asks for one evaluation
	val = 0.8 * (1 + tolerance/2)
	round()
	if evals != 1 {
		t.Fatalf("%d evaluations after a move within tolerance, want 1", evals)
	}
	val = 0.3 // leaves the region by more than tolerance
	round()
	if evals != 2 {
		t.Fatalf("%d evaluations after a move beyond tolerance, want 2", evals)
	}
	round()
	round() // third consecutive round outside, on the kept verdict
	if evals != 2 {
		t.Fatalf("%d evaluations while the estimate held still, want 2", evals)
	}
	tr, _, ready := a.Triggers().TryRecv()
	if !ready || tr.Estimate[resource.CPU] != 0.3 {
		t.Fatalf("no trigger after 3 rounds outside (got %+v, %v)", tr, ready)
	}
}

// A peer's estimate joins the agent's joint estimate and is judged at the
// next round, though no local estimate moved. It fills only the kinds no
// local probe has measured: a peer's report of a kind a local probe
// estimates is ignored, and a peer's value stands only until the local
// probe's first sample of that kind replaces it.
func TestPeerEstimateJoinsTheRegion(t *testing.T) {
	sim := vtime.NewSim()
	a := New(sim, "client-mon", WithPeriod(10*time.Millisecond), WithHysteresis(1))
	a.AddProbe(&OracleProbe{K: resource.CPU, Fn: func(time.Duration) (float64, bool) { return 0.8, true }})
	a.Arm(func(v resource.Vector) bool {
		bw, ok := v[resource.Bandwidth]
		return !ok || bw >= 100e3
	})
	a.Start()
	var trig Trigger
	var fired bool
	sim.Spawn("peer", func(p *vtime.Proc) {
		p.Sleep(100 * time.Millisecond)
		a.Inbox().TrySend(EstimateMsg{From: "server-mon", At: p.Now(),
			Estimate: resource.Vector{resource.Bandwidth: 40e3}})
		trig, fired, _ = a.Triggers().RecvTimeout(p, time.Second)
		a.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || trig.Estimate[resource.Bandwidth] != 40e3 || math.Abs(trig.Estimate[resource.CPU]-0.8) > 1e-9 {
		t.Fatalf("peer estimate did not trigger: %v %+v", fired, trig)
	}
	if trig.At > 120*time.Millisecond {
		t.Fatalf("peer estimate judged at %v, want the round after it arrived", trig.At)
	}

	// A peer's report of a kind the local probe already estimates.
	b := New(vtime.NewSim(), "client-mon", WithHysteresis(1))
	b.AddProbe(&OracleProbe{K: resource.CPU, Fn: func(time.Duration) (float64, bool) { return 0.8, true }})
	b.Arm(cpuWithin(0.5, 1.0))
	b.RunOnce(DefaultPeriod)
	b.Inbox().TrySend(EstimateMsg{From: "server-mon", Estimate: resource.Vector{resource.CPU: 0.1}})
	b.drainInbox()
	if got := b.Snapshot()[resource.CPU]; got != 0.8 {
		t.Fatalf("a peer's cpu=0.1 replaced the local estimate: cpu=%v", got)
	}
	b.RunOnce(2 * DefaultPeriod)
	if tr, _, ready := b.Triggers().TryRecv(); ready {
		t.Fatalf("a peer's report of a locally measured kind fired %v", tr)
	}

	// A peer's value for a kind the local probe has not sampled yet.
	c := New(vtime.NewSim(), "client-mon")
	bw, sampling := 200e3, false
	c.AddProbe(&OracleProbe{K: resource.Bandwidth, Fn: func(time.Duration) (float64, bool) { return bw, sampling }})
	c.RunOnce(DefaultPeriod)
	c.Inbox().TrySend(EstimateMsg{From: "server-mon", Estimate: resource.Vector{resource.Bandwidth: 40e3}})
	c.drainInbox()
	c.RunOnce(2 * DefaultPeriod)
	if got := c.Snapshot()[resource.Bandwidth]; got != 40e3 {
		t.Fatalf("bandwidth %v before the local probe sampled, want the peer's 40000", got)
	}
	sampling = true
	c.RunOnce(3 * DefaultPeriod)
	if got := c.Snapshot()[resource.Bandwidth]; got != bw {
		t.Fatalf("bandwidth %v after the local probe's first sample, want its %v", got, bw)
	}
	c.Inbox().TrySend(EstimateMsg{From: "server-mon", Estimate: resource.Vector{resource.Bandwidth: 40e3}})
	c.drainInbox()
	if got := c.Snapshot()[resource.Bandwidth]; got != bw {
		t.Fatalf("a peer's bandwidth replaced the local estimate: %v", got)
	}
}

func TestPeerEstimatePropagation(t *testing.T) {
	sim := vtime.NewSim()
	client := New(sim, "client-mon", WithPeriod(10*time.Millisecond), WithWindow(20*time.Millisecond), WithHysteresis(1))
	server := New(sim, "server-mon", WithPeriod(10*time.Millisecond), WithWindow(20*time.Millisecond))
	client.AddProbe(&OracleProbe{K: resource.CPU, Fn: func(time.Duration) (float64, bool) { return 0.3, true }})
	client.Arm(cpuWithin(0.7, 1.0))
	client.AddPeer(server.Inbox())
	client.Start()
	server.Start()
	sim.Spawn("driver", func(p *vtime.Proc) {
		p.Sleep(500 * time.Millisecond)
		cpu, ok := server.Snapshot()[resource.CPU]
		if !ok {
			t.Error("server agent has no remote cpu estimate")
		} else if math.Abs(cpu-0.3) > 1e-9 {
			t.Errorf("remote estimate %v", cpu)
		}
		client.Stop()
		server.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTriggerString(t *testing.T) {
	tr := Trigger{At: time.Second, Estimate: resource.Vector{resource.CPU: 0.3}, Reason: leftRegion}
	if got, want := tr.String(), "t=1s estimate left the armed region: cpu=0.3"; got != want {
		t.Fatalf("trigger renders %q, want %q", got, want)
	}
	tr = Trigger{At: time.Second, Reason: "model refined"}
	if got, want := tr.String(), "t=1s model refined"; got != want {
		t.Fatalf("trigger without an estimate renders %q, want %q", got, want)
	}
}

// End-to-end: a sandboxed computation whose share is cut mid-run must be
// detected by the CPU probe + agent combination without reading settings.
func TestEndToEndShareDropDetection(t *testing.T) {
	sim := vtime.NewSim()
	h := sandbox.NewHost(sim, "h", 100e6, sandbox.WithOSLoad(0))
	sb, _ := h.NewSandbox("app", 0.9, 0)
	a := New(sim, "mon", WithPeriod(10*time.Millisecond), WithWindow(100*time.Millisecond), WithHysteresis(3))
	a.AddProbe(NewCPUProbe("client", sb))
	a.Arm(cpuWithin(0.6, 1.0))
	a.Start()
	sim.Spawn("app", func(p *vtime.Proc) {
		sb.Compute(p, 500e6) // long-running computation
	})
	sim.After(2*time.Second, func() {
		if err := sb.SetCPUShare(0.4); err != nil {
			t.Error(err)
		}
	})
	var trig Trigger
	var fired bool
	sim.Spawn("listener", func(p *vtime.Proc) {
		tr, ok, ready := a.Triggers().RecvTimeout(p, 10*time.Second)
		fired = ok && ready
		trig = tr
		a.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("share drop not detected")
	}
	if trig.At < 2*time.Second {
		t.Fatalf("detected at %v, before the drop", trig.At)
	}
	if trig.At > 2*time.Second+500*time.Millisecond {
		t.Fatalf("detection latency too high: %v", trig.At)
	}
	if cpu := trig.Estimate[resource.CPU]; math.Abs(cpu-0.4) > 0.15 {
		t.Fatalf("estimated dropped share %v, want ~0.4", cpu)
	}
}

func TestEWMASmoothing(t *testing.T) {
	sim := vtime.NewSim()
	a := New(sim, "mon", WithPeriod(10*time.Millisecond), WithSmoothing(EWMA, 0.5))
	val := 1.0
	a.AddProbe(&OracleProbe{K: resource.CPU, Fn: func(time.Duration) (float64, bool) {
		return val, true
	}})
	// First sample initializes the EWMA directly.
	a.RunOnce(10 * time.Millisecond)
	if got := a.Snapshot()[resource.CPU]; got != 1.0 {
		t.Fatalf("initial EWMA %v", got)
	}
	// A step decays geometrically: 1.0 → 0.5·0+0.5·1.0 = 0.5 → 0.25.
	val = 0
	a.RunOnce(20 * time.Millisecond)
	if got := a.Snapshot()[resource.CPU]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("EWMA after one step %v", got)
	}
	a.RunOnce(30 * time.Millisecond)
	if got := a.Snapshot()[resource.CPU]; math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("EWMA after two steps %v", got)
	}
}

func TestSmoothingModesConvergeEqually(t *testing.T) {
	for _, mode := range []Smoothing{WindowMean, EWMA} {
		sim := vtime.NewSim()
		a := New(sim, "mon", WithPeriod(10*time.Millisecond),
			WithWindow(100*time.Millisecond), WithSmoothing(mode, 0.2))
		a.AddProbe(&OracleProbe{K: resource.CPU, Fn: func(time.Duration) (float64, bool) {
			return 0.7, true
		}})
		a.Start()
		sim.Spawn("driver", func(p *vtime.Proc) {
			p.Sleep(2 * time.Second)
			if got := a.Snapshot()[resource.CPU]; math.Abs(got-0.7) > 1e-6 {
				t.Errorf("mode %d: converged to %v", mode, got)
			}
			a.Stop()
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// A sampling round allocates nothing per probe: the probe's key is built
// once in AddProbe, and the windowed history is compacted in place.
func TestRoundAllocatesNothingPerProbe(t *testing.T) {
	a := New(vtime.NewSim(), "m")
	for _, k := range []resource.Kind{resource.CPU, resource.Bandwidth} {
		a.AddProbe(&OracleProbe{K: k, Fn: func(time.Duration) (float64, bool) { return 0.5, true }})
	}
	a.Arm(func(resource.Vector) bool { return true })
	now := time.Duration(0)
	round := func() {
		now += DefaultPeriod
		a.RunOnce(now)
	}
	for i := 0; i < 100; i++ { // fill the window, so the history stops growing
		round()
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("%v allocations per round, want 0", n)
	}
}

// A round that re-evaluates the armed region allocates nothing either: the
// region is judged on the agent's own joint estimate, not on a copy.
func TestRegionCheckAllocatesNothing(t *testing.T) {
	a := New(vtime.NewSim(), "m", WithWindow(0))
	tick := 0
	for _, k := range []resource.Kind{resource.CPU, resource.Bandwidth} {
		// Alternating 0.4 and 0.6 moves each estimate far beyond tolerance
		// every round.
		a.AddProbe(&OracleProbe{K: k, Fn: func(time.Duration) (float64, bool) {
			return 0.4 + 0.2*float64(tick%2), true
		}})
	}
	evals := 0
	a.Arm(func(v resource.Vector) bool { evals++; return v[resource.CPU] > 0 })
	now := time.Duration(0)
	round := func() {
		tick++
		now += DefaultPeriod
		a.RunOnce(now)
	}
	round() // the window (one sample wide) is full from here on
	evals = 0
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("%v allocations per re-evaluating round, want 0", n)
	}
	if evals != 101 {
		t.Fatalf("%d region evaluations over 101 rounds, want one a round", evals)
	}
}

// TestJitterInsideRegionFiresNoTrigger: a CPU probe jittering ±5 %
// around a level inside the armed region — close enough to its edge that
// about a third of the single samples fall outside — fires no trigger,
// for any of sixteen seeds. The window mean is what the region judges,
// and only a trigger restarts it at the change point.
func TestJitterInsideRegionFiresNoTrigger(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		sim := vtime.NewSim()
		a := New(sim, "mon")
		rng := prng.New(seed)
		outside := 0
		a.AddProbe(&OracleProbe{K: resource.CPU, Fn: func(time.Duration) (float64, bool) {
			v := 0.51 * (1 + 0.05*(2*rng.Float64()-1))
			if v < 0.5 {
				outside++
			}
			return v, true
		}})
		a.Start()
		sim.Spawn("driver", func(p *vtime.Proc) {
			p.Sleep(DefaultWindow + 100*time.Millisecond) // a full window first
			a.Arm(cpuWithin(0.5, 1.0))
			p.Sleep(20 * time.Second)
			a.Stop()
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if tr, _, ready := a.Triggers().TryRecv(); ready {
			t.Errorf("seed %d: noise fired %v", seed, tr)
		}
		if outside == 0 {
			t.Errorf("seed %d: no sample fell outside the region; the test needs some", seed)
		}
	}
}
