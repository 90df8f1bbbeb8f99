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

func TestMemoryFaultsSlowTouch(t *testing.T) {
	sim := vtime.NewSim()
	h := NewHost(sim, "h", 100e6, WithOSLoad(0))
	sb, _ := h.NewSandbox("app", 1.0, 10<<20)
	// Within the limit: Touch is free.
	el := run(t, sim, func(p *vtime.Proc) {
		sb.Alloc(8 << 20)
		sb.Touch(p, 8<<20)
	})
	if el != 0 {
		t.Fatalf("in-limit touch cost %v", el)
	}
	if sb.Faults() != 0 {
		t.Fatalf("in-limit faults %d", sb.Faults())
	}
	// Over the limit: faults burn CPU.
	sim2 := vtime.NewSim()
	h2 := NewHost(sim2, "h", 100e6, WithOSLoad(0))
	sb2, _ := h2.NewSandbox("app", 1.0, 10<<20)
	el2 := run(t, sim2, func(p *vtime.Proc) {
		sb2.Alloc(20 << 20)
		sb2.Touch(p, 20<<20)
	})
	if el2 == 0 {
		t.Fatal("over-limit touch was free")
	}
	if sb2.Faults() == 0 {
		t.Fatal("no faults recorded")
	}
}

func TestAllocFree(t *testing.T) {
	sim := vtime.NewSim()
	h := NewHost(sim, "h", 100e6)
	sb, _ := h.NewSandbox("app", 0.5, 0)
	sb.Alloc(1000)
	sb.Alloc(500)
	if sb.MemUsed() != 1500 {
		t.Fatalf("MemUsed %d", sb.MemUsed())
	}
	sb.Free(2000)
	if sb.MemUsed() != 0 {
		t.Fatalf("MemUsed %d after over-free", sb.MemUsed())
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

func TestSetMemLimit(t *testing.T) {
	sim := vtime.NewSim()
	h := NewHost(sim, "h", 100e6, WithMemory(64<<20))
	sb, _ := h.NewSandbox("app", 0.5, 32<<20)
	if err := sb.SetMemLimit(48 << 20); err != nil {
		t.Fatal(err)
	}
	if err := sb.SetMemLimit(128 << 20); err == nil {
		t.Fatal("over-memory growth accepted")
	}
	if err := sb.SetMemLimit(-1); err == nil {
		t.Fatal("negative limit accepted")
	}
}

func TestTouchPartialOverLimit(t *testing.T) {
	sim := vtime.NewSim()
	h := NewHost(sim, "h", 100e6, WithOSLoad(0))
	sb, _ := h.NewSandbox("app", 1.0, 10<<20)
	// 25% over the limit: roughly a quarter of touched pages fault.
	var el1, el2 time.Duration
	sim.Spawn("t", func(p *vtime.Proc) {
		sb.Alloc(int64(12.5 * float64(1<<20)))
		start := p.Now()
		sb.Touch(p, 4<<20)
		el1 = p.Now() - start
		// Going further over the limit faults more.
		sb.Alloc(10 << 20)
		start = p.Now()
		sb.Touch(p, 4<<20)
		el2 = p.Now() - start
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if el1 <= 0 {
		t.Fatal("over-limit touch was free")
	}
	if el2 <= el1 {
		t.Fatalf("worse overcommit not slower: %v vs %v", el2, el1)
	}
}

func TestHostAccessors(t *testing.T) {
	sim := vtime.NewSim()
	h := NewHost(sim, "box", 450e6, WithMemory(64<<20))
	if h.Name() != "box" || h.Speed() != 450e6 || h.MemTotal() != 64<<20 {
		t.Fatalf("accessors %s %v %v", h.Name(), h.Speed(), h.MemTotal())
	}
	sb, err := h.NewSandbox("a", 0.5, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Name() != "a" || sb.Host() != h {
		t.Fatal("sandbox accessors")
	}
	if h.MemReserved() != 16<<20 {
		t.Fatalf("mem reserved %d", h.MemReserved())
	}
}
