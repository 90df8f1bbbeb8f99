package monitor

import (
	"math"
	"testing"
	"time"

	"tunable/internal/resource"
	"tunable/internal/vtime"
)

// silencingProbe reports a constant value until a cutoff instant, then
// goes silent (ok=false) until an optional resume instant — the signature
// of a partitioned or paused node seen from the monitoring side.
type silencingProbe struct {
	val      float64
	silentAt time.Duration
	resumeAt time.Duration // 0 = never
}

func (s *silencingProbe) Kind() resource.Kind { return resource.CPU }
func (s *silencingProbe) Sample(now time.Duration) (float64, bool) {
	if now >= s.silentAt && (s.resumeAt == 0 || now < s.resumeAt) {
		return 0, false
	}
	return s.val, true
}

func TestStaleProbeDecaysEstimateAndTriggers(t *testing.T) {
	sim := vtime.NewSim()
	a := New(sim, "mon",
		WithPeriod(10*time.Millisecond), WithWindow(50*time.Millisecond),
		WithHysteresis(1),
		withStaleAfter(50*time.Millisecond), withDegrade(0.8, 0.25))
	a.AddProbe(&silencingProbe{val: 0.9, silentAt: 100 * time.Millisecond})
	a.Arm(cpuWithin(0.7, 1.0))
	a.Start()
	var trig Trigger
	var fired bool
	sim.Spawn("listener", func(p *vtime.Proc) {
		tr, ok, ready := a.Triggers().RecvTimeout(p, 2*time.Second)
		fired = ok && ready
		trig = tr
		p.Sleep(500 * time.Millisecond) // let decay reach the floor
		a.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("stale decay never left the armed region")
	}
	if trig.At < 150*time.Millisecond {
		t.Fatalf("trigger at %v, before the staleness deadline", trig.At)
	}
	if a.Degraded() != 1 {
		t.Fatalf("Degraded() = %d, want 1", a.Degraded())
	}
	// Decay bottoms out at floor × last good estimate, not zero.
	got := a.Snapshot()[resource.CPU]
	want := 0.25 * 0.9
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("decayed estimate %v, want floor %v", got, want)
	}
}

func TestStaleDetectionOffRetainsEstimate(t *testing.T) {
	sim := vtime.NewSim()
	a := New(sim, "mon", WithPeriod(10*time.Millisecond), WithWindow(50*time.Millisecond))
	a.AddProbe(&silencingProbe{val: 0.9, silentAt: 100 * time.Millisecond})
	a.Start()
	sim.Spawn("driver", func(p *vtime.Proc) {
		p.Sleep(time.Second)
		a.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := a.Snapshot()[resource.CPU]; math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("estimate %v changed with staleness detection off, want 0.9 retained", got)
	}
	if a.Degraded() != 0 {
		t.Fatalf("Degraded() = %d with detection off", a.Degraded())
	}
}

func TestDegradedModeRecoversOnFreshSamples(t *testing.T) {
	sim := vtime.NewSim()
	a := New(sim, "mon",
		WithPeriod(10*time.Millisecond), WithWindow(50*time.Millisecond),
		withStaleAfter(30*time.Millisecond), withDegrade(0.8, 0.1))
	a.AddProbe(&silencingProbe{val: 0.9, silentAt: 100 * time.Millisecond, resumeAt: 400 * time.Millisecond})
	a.Start()
	var duringOutage float64
	sim.Spawn("driver", func(p *vtime.Proc) {
		p.Sleep(300 * time.Millisecond)
		duringOutage = a.Snapshot()[resource.CPU]
		p.Sleep(300 * time.Millisecond) // probe resumed at 400ms
		a.Stop()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if duringOutage >= 0.9 {
		t.Fatalf("estimate %v did not decay during the outage", duringOutage)
	}
	if a.Degraded() != 0 {
		t.Fatalf("Degraded() = %d after recovery, want 0", a.Degraded())
	}
	if got := a.Snapshot()[resource.CPU]; math.Abs(got-0.9) > 0.05 {
		t.Fatalf("estimate %v after recovery, want back near 0.9", got)
	}
}
