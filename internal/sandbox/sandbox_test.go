package sandbox

import (
	"math"
	"testing"
	"time"

	"tunable/internal/vtime"
)

// run executes fn as a single simulation process and returns the elapsed
// virtual time.
func run(t *testing.T, sim *vtime.Sim, fn func(p *vtime.Proc)) time.Duration {
	t.Helper()
	var elapsed time.Duration
	sim.Spawn("test", func(p *vtime.Proc) {
		start := p.Now()
		fn(p)
		elapsed = p.Now() - start
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return elapsed
}

func TestComputeDurationScalesWithShare(t *testing.T) {
	const cycles = 450e6 // one second of work at full speed on a 450 MHz host
	for _, share := range []float64{1.0, 0.5, 0.25, 0.1} {
		sim := vtime.NewSim()
		h := NewHost(sim, "pii450", 450e6, WithOSLoad(0))
		sb, err := h.NewSandbox("app", share, 0)
		if err != nil {
			t.Fatal(err)
		}
		elapsed := run(t, sim, func(p *vtime.Proc) { sb.Compute(p, cycles) })
		want := time.Duration(float64(time.Second) / share)
		ratio := float64(elapsed) / float64(want)
		if ratio < 0.98 || ratio > 1.02 {
			t.Errorf("share %.2f: elapsed %v, want ~%v (ratio %.3f)", share, elapsed, want, ratio)
		}
	}
}

func TestComputeAccountsCPUTime(t *testing.T) {
	sim := vtime.NewSim()
	h := NewHost(sim, "h", 100e6, WithOSLoad(0))
	sb, _ := h.NewSandbox("app", 0.4, 0)
	run(t, sim, func(p *vtime.Proc) { sb.Compute(p, 200e6) }) // 2 CPU-seconds of work
	cpu := sb.CPUTime().Seconds()
	if math.Abs(cpu-2.0) > 0.02 {
		t.Fatalf("CPUTime %.3fs, want ~2s", cpu)
	}
	active := sb.ActiveTime().Seconds()
	if math.Abs(active-5.0) > 0.1 { // 2 CPU-seconds at 40% share → 5s wall
		t.Fatalf("ActiveTime %.3fs, want ~5s", active)
	}
	// Achieved share = cpu/active ≈ the configured share.
	if got := cpu / active; math.Abs(got-0.4) > 0.01 {
		t.Fatalf("achieved share %.3f, want ~0.4", got)
	}
}

func TestDynamicShareChangeTakesEffect(t *testing.T) {
	sim := vtime.NewSim()
	h := NewHost(sim, "h", 100e6, WithOSLoad(0))
	sb, _ := h.NewSandbox("app", 0.8, 0)
	// Halve the share after 1 second; work sized for 0.8 share × 1 s +
	// 0.4 share × 1 s = 1.2 CPU-seconds → 120e6 cycles.
	sim.After(time.Second, func() {
		if err := sb.SetCPUShare(0.4); err != nil {
			t.Error(err)
		}
	})
	elapsed := run(t, sim, func(p *vtime.Proc) { sb.Compute(p, 120e6) })
	if math.Abs(elapsed.Seconds()-2.0) > 0.05 {
		t.Fatalf("elapsed %v, want ~2s with mid-flight share change", elapsed)
	}
}

func TestOSLoadCapsFullShare(t *testing.T) {
	sim := vtime.NewSim()
	h := NewHost(sim, "h", 100e6, WithOSLoad(0.05))
	sb, _ := h.NewSandbox("greedy", 0.97, 0)
	elapsed := run(t, sim, func(p *vtime.Proc) { sb.Compute(p, 100e6) })
	// Effective share capped at 0.95 → elapsed ≈ 1/0.95 s, definitely > 1 s.
	if elapsed <= time.Second {
		t.Fatalf("elapsed %v: OS load did not perturb full-share app", elapsed)
	}
	if elapsed > 1100*time.Millisecond {
		t.Fatalf("elapsed %v: perturbation too large", elapsed)
	}
}

func TestAdmissionControl(t *testing.T) {
	sim := vtime.NewSim()
	h := NewHost(sim, "h", 100e6)
	if _, err := h.NewSandbox("a", 0.6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewSandbox("b", 0.5, 0); err == nil {
		t.Fatal("oversubscription admitted")
	}
	sbC, err := h.NewSandbox("c", 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Reserved() < 0.89 || h.Reserved() > 0.91 {
		t.Fatalf("reserved %.2f", h.Reserved())
	}
	h.Release(sbC)
	if math.Abs(h.Reserved()-0.6) > 1e-9 {
		t.Fatalf("reserved after release %.2f", h.Reserved())
	}
	if _, err := h.NewSandbox("a", 0.1, 0); err == nil {
		t.Fatal("duplicate name admitted")
	}
	if _, err := h.NewSandbox("bad", 0, 0); err == nil {
		t.Fatal("zero share admitted")
	}
	if _, err := h.NewSandbox("bad2", 1.5, 0); err == nil {
		t.Fatal("share > 1 admitted")
	}
}

// TestNaNShareRejected: NaN fails every comparison, so a bound written
// as "refuse if share <= 0 || share > 1" admits it, the host's reserved
// share turns NaN, and from then on every admission check passes.
func TestNaNShareRejected(t *testing.T) {
	sim := vtime.NewSim()
	h := NewHost(sim, "h", 100e6)
	a, err := h.NewSandbox("a", 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewSandbox("nan", math.NaN(), 0); err == nil {
		t.Fatal("NaN share admitted")
	}
	if err := a.SetCPUShare(math.NaN()); err == nil {
		t.Fatal("NaN share accepted by SetCPUShare")
	}
	if h.Reserved() != 0.5 || a.CPUShare() != 0.5 {
		t.Fatalf("reserved %v, share %v after refusals; want 0.5 and 0.5", h.Reserved(), a.CPUShare())
	}
	if _, err := h.NewSandbox("b", 0.5, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewSandbox("c", 0.5, 0); err == nil {
		t.Fatal("the host admitted a third half share")
	}
}

func TestMemoryAdmission(t *testing.T) {
	sim := vtime.NewSim()
	h := NewHost(sim, "h", 100e6, WithMemory(100<<20))
	if _, err := h.NewSandbox("a", 0.3, 80<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewSandbox("b", 0.3, 40<<20); err == nil {
		t.Fatal("memory oversubscription admitted")
	}
}

// Two sandboxes sharing a host must each receive exactly their share —
// "several virtual machines on the same physical host, without them
// interfering with each other" (Section 5.1).
func TestSandboxesDoNotInterfere(t *testing.T) {
	sim := vtime.NewSim()
	h := NewHost(sim, "h", 100e6, WithOSLoad(0))
	a, _ := h.NewSandbox("a", 0.5, 0)
	b, _ := h.NewSandbox("b", 0.25, 0)
	var aDone, bDone time.Duration
	sim.Spawn("a", func(p *vtime.Proc) {
		a.Compute(p, 50e6) // 0.5 CPU-s at 50% → 1 s
		aDone = p.Now()
	})
	sim.Spawn("b", func(p *vtime.Proc) {
		b.Compute(p, 50e6) // 0.5 CPU-s at 25% → 2 s
		bDone = p.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(aDone.Seconds()-1.0) > 0.02 {
		t.Fatalf("a finished at %v, want ~1s", aDone)
	}
	if math.Abs(bDone.Seconds()-2.0) > 0.04 {
		t.Fatalf("b finished at %v, want ~2s", bDone)
	}
}

func TestSetCPUShareValidation(t *testing.T) {
	sim := vtime.NewSim()
	h := NewHost(sim, "h", 100e6)
	a, _ := h.NewSandbox("a", 0.5, 0)
	if _, err := h.NewSandbox("b", 0.4, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.SetCPUShare(0.7); err == nil {
		t.Fatal("growing past admission bound succeeded")
	}
	if err := a.SetCPUShare(0); err == nil {
		t.Fatal("zero share accepted")
	}
	if err := a.SetCPUShare(0.3); err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Reserved()-0.7) > 1e-9 {
		t.Fatalf("reserved %.2f after shrink", h.Reserved())
	}
}

func TestDeterministicReplay(t *testing.T) {
	measure := func() time.Duration {
		sim := vtime.NewSim()
		h := NewHost(sim, "pii450", 450e6)
		sb, _ := h.NewSandbox("app", 0.8, 0)
		return run(t, sim, func(p *vtime.Proc) { sb.Compute(p, 1e9) })
	}
	a, b := measure(), measure()
	if a != b {
		t.Fatalf("replay mismatch: %v vs %v", a, b)
	}
}

func TestHostAccessors(t *testing.T) {
	sim := vtime.NewSim()
	h := NewHost(sim, "box", 450e6, WithMemory(64<<20))
	if h.Name() != "box" || h.Speed() != 450e6 || h.memTotal != 64<<20 {
		t.Fatalf("accessors %s %v %v", h.Name(), h.Speed(), h.memTotal)
	}
	sb, err := h.NewSandbox("a", 0.5, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Name() != "a" || sb.Host() != h {
		t.Fatal("sandbox accessors")
	}
	if h.memResv != 16<<20 {
		t.Fatalf("mem reserved %d", h.memResv)
	}
}

// A computation sleeps on its process's embedded timer, replays its quanta
// on the sandbox's value-held stream and is woken by SetCPUShare without a
// fresh timer, so Compute allocates nothing: one quantum, many, or many
// with a share change part-way.
func TestComputeAllocatesNothing(t *testing.T) {
	sim := vtime.NewSim()
	sb, _ := NewHost(sim, "h", 450e6).NewSandbox("app", 0.5, 0)
	share := 0.5
	flip := func() {
		share = 0.9 - share
		_ = sb.SetCPUShare(share)
	}
	quantum := 0.5 * 450e6 * Quantum.Seconds()
	per := map[string]float64{}
	sim.Spawn("app", func(p *vtime.Proc) {
		per["one quantum"] = testing.AllocsPerRun(100, func() { sb.Compute(p, quantum/2) })
		per["many quanta"] = testing.AllocsPerRun(100, func() { sb.Compute(p, 100*quantum) })
		per["share change"] = testing.AllocsPerRun(100, func() {
			sim.After(25*time.Millisecond, flip)
			sb.Compute(p, 5*quantum)
			_, _ = sb.CPUTime(), sb.ActiveTime()
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for name, n := range per {
		if n != 0 {
			t.Errorf("%s: %v allocations per Compute, want 0", name, n)
		}
	}
}

// One process at a time may Compute in a sandbox: a second one panics,
// naming the process already computing, and the first carries on.
func TestConcurrentComputePanics(t *testing.T) {
	sim := vtime.NewSim()
	sb, _ := NewHost(sim, "h", 450e6).NewSandbox("app", 0.5, 0)
	var end time.Duration
	sim.Spawn("first", func(p *vtime.Proc) {
		sb.Compute(p, 3*0.5*450e6*Quantum.Seconds())
		end = p.Now()
	})
	var got any
	sim.Spawn("second", func(p *vtime.Proc) {
		defer func() { got = recover() }()
		sb.Compute(p, 1e5)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "sandbox: app: Compute while first computes"; got != want {
		t.Errorf("second Compute: recovered %v, want the panic %q", got, want)
	}
	if end < 3*Quantum-Quantum/10 {
		t.Errorf("first computation ends at %v, want about %v", end, 3*Quantum)
	}
}
