package monitor

import (
	"math"
	"testing"
	"time"

	"tunable/internal/netem"
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

func TestMemoryProbe(t *testing.T) {
	sim := vtime.NewSim()
	h := sandbox.NewHost(sim, "h", 100e6)
	sb, _ := h.NewSandbox("app", 0.4, 10<<20)
	probe := NewMemoryProbe("client", sb)
	v, ok := probe.Sample(0)
	if !ok || v != float64(10<<20) {
		t.Fatalf("free %v %v", v, ok)
	}
	sb.Alloc(4 << 20)
	v, _ = probe.Sample(0)
	if v != float64(6<<20) {
		t.Fatalf("free after alloc %v", v)
	}
	sb.Alloc(20 << 20)
	v, _ = probe.Sample(0)
	if v != 0 {
		t.Fatalf("negative headroom clamped: %v", v)
	}
}

func TestAgentWindowedEstimate(t *testing.T) {
	sim := vtime.NewSim()
	a := New(sim, "mon", WithPeriod(10*time.Millisecond), WithWindow(100*time.Millisecond))
	val := 0.8
	a.AddProbe(&OracleProbe{Comp: "client", K: resource.CPU, Fn: func(time.Duration) (float64, bool) {
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

func TestAgentTriggersOnRangeViolation(t *testing.T) {
	sim := vtime.NewSim()
	a := New(sim, "mon", WithPeriod(10*time.Millisecond), WithWindow(50*time.Millisecond), WithHysteresis(3))
	val := 0.9
	a.AddProbe(&OracleProbe{Comp: "client", K: resource.CPU, Fn: func(time.Duration) (float64, bool) {
		return val, true
	}})
	a.SetValidRange("client", resource.CPU, 0.7, 1.0)
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
	if trig.Component != "client" || trig.Kind != resource.CPU {
		t.Fatalf("trigger %+v", trig)
	}
	if trig.At < 300*time.Millisecond {
		t.Fatalf("trigger fired before the perturbation at %v", trig.At)
	}
	if trig.Value > 0.7 {
		t.Fatalf("trigger value %v inside range", trig.Value)
	}
}

func TestAgentHysteresisSuppressesBlips(t *testing.T) {
	sim := vtime.NewSim()
	a := New(sim, "mon", WithPeriod(10*time.Millisecond), WithWindow(10*time.Millisecond), WithHysteresis(5))
	tick := 0
	a.AddProbe(&OracleProbe{Comp: "client", K: resource.CPU, Fn: func(time.Duration) (float64, bool) {
		tick++
		if tick%7 == 0 { // a single-sample blip every 7 samples
			return 0.1, true
		}
		return 0.9, true
	}})
	a.SetValidRange("client", resource.CPU, 0.5, 1.0)
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
	a.AddProbe(&OracleProbe{Comp: "c", K: resource.CPU, Fn: func(time.Duration) (float64, bool) { return 0.2, true }})
	a.SetValidRange("c", resource.CPU, 0.5, 1.0)
	a.SetValidRange("c", resource.CPU, 1, 0) // lo > hi removes
	a.RunOnce(time.Millisecond)
	if _, _, ready := a.Triggers().TryRecv(); ready {
		t.Fatal("removed range still triggers")
	}
	a.SetValidRange("c", resource.CPU, 0.5, 1.0)
	a.RunOnce(2 * time.Millisecond)
	if _, _, ready := a.Triggers().TryRecv(); !ready {
		t.Fatal("restored range did not trigger")
	}
	a.ClearRanges()
	a.RunOnce(3 * time.Millisecond)
	if _, _, ready := a.Triggers().TryRecv(); ready {
		t.Fatal("cleared ranges still trigger")
	}
}

func TestPeerEstimatePropagation(t *testing.T) {
	sim := vtime.NewSim()
	client := New(sim, "client-mon", WithPeriod(10*time.Millisecond), WithWindow(20*time.Millisecond), WithHysteresis(1))
	server := New(sim, "server-mon", WithPeriod(10*time.Millisecond), WithWindow(20*time.Millisecond))
	client.AddProbe(&OracleProbe{Comp: "client", K: resource.CPU, Fn: func(time.Duration) (float64, bool) { return 0.3, true }})
	client.SetValidRange("client", resource.CPU, 0.7, 1.0)
	client.AddPeer(server.Inbox())
	client.Start()
	server.Start()
	sim.Spawn("driver", func(p *vtime.Proc) {
		p.Sleep(500 * time.Millisecond)
		est := server.Estimates()
		v, ok := est["client"]
		if !ok {
			t.Error("server agent has no remote estimate for client")
		} else if math.Abs(v[resource.CPU]-0.3) > 1e-9 {
			t.Errorf("remote estimate %v", v[resource.CPU])
		}
		client.Stop()
		server.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSystemMonitor(t *testing.T) {
	sim := vtime.NewSim()
	h := sandbox.NewHost(sim, "client", 450e6)
	m := NewSystemMonitor()
	m.RegisterHost(h)
	c, ok := m.Capacity("client")
	if !ok || c.Limits[resource.CPU] != 1.0 {
		t.Fatalf("capacity %+v %v", c, ok)
	}
	if c.Limits[resource.Memory] != float64(128<<20) {
		t.Fatalf("memory capacity %v", c.Limits[resource.Memory])
	}
	if _, ok := m.Capacity("nowhere"); ok {
		t.Fatal("phantom capacity")
	}
	if len(m.Components()) != 1 {
		t.Fatal("components")
	}
}

func TestTriggerString(t *testing.T) {
	tr := Trigger{At: time.Second, Component: "client", Kind: resource.CPU, Value: 0.3, Lo: 0.7, Hi: 1.0}
	if tr.String() == "" {
		t.Fatal("empty trigger string")
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
	a.SetValidRange("client", resource.CPU, 0.6, 1.0)
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
	if math.Abs(trig.Value-0.4) > 0.15 {
		t.Fatalf("estimated dropped share %v, want ~0.4", trig.Value)
	}
}

func TestEWMASmoothing(t *testing.T) {
	sim := vtime.NewSim()
	a := New(sim, "mon", WithPeriod(10*time.Millisecond), WithSmoothing(EWMA, 0.5))
	val := 1.0
	a.AddProbe(&OracleProbe{Comp: "c", K: resource.CPU, Fn: func(time.Duration) (float64, bool) {
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
		a.AddProbe(&OracleProbe{Comp: "c", K: resource.CPU, Fn: func(time.Duration) (float64, bool) {
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

func TestRecvBandwidthProbe(t *testing.T) {
	sim := vtime.NewSim()
	l := netem.NewLink(sim, "lan", 100_000, netem.WithLatency(0))
	probe := NewRecvBandwidthProbe("client", l.A())
	// First sample only initializes.
	if _, ok := probe.Sample(0); ok {
		t.Fatal("first sample should not be ready")
	}
	var est float64
	var ok bool
	sim.Spawn("sender", func(p *vtime.Proc) {
		l.B().Send(p, make([]byte, 100_000)) // 1 s at 100 KB/s
	})
	sim.Spawn("receiver", func(p *vtime.Proc) {
		l.A().Recv(p)
		est, ok = probe.Sample(p.Now())
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no observation")
	}
	// Receiver-side estimate conflates elapsed time; expect the right
	// magnitude, not precision.
	if est < 50_000 || est > 200_000 {
		t.Fatalf("estimated bandwidth %.0f", est)
	}
}

// A sampling round allocates nothing per probe: the probe's key is built
// once in AddProbe, and the windowed history is compacted in place.
func TestRoundAllocatesNothingPerProbe(t *testing.T) {
	a := New(vtime.NewSim(), "m")
	for _, k := range []resource.Kind{resource.CPU, resource.Bandwidth} {
		a.AddProbe(&OracleProbe{Comp: "client", K: k, Fn: func(time.Duration) (float64, bool) { return 0.5, true }})
		a.SetValidRange("client", k, 0, 1)
	}
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
