package faults

import (
	"reflect"
	"testing"
	"time"

	"tunable/internal/netem"
	"tunable/internal/sandbox"
	"tunable/internal/vtime"
)

func TestDriverAppliesAndRevertsLinkFaults(t *testing.T) {
	sim := vtime.NewSim()
	link := netem.NewLink(sim, "client-server", 100_000, netem.WithLatency(time.Millisecond))
	sched := NewSchedule(5,
		Event{At: 10 * time.Millisecond, Duration: 20 * time.Millisecond, Kind: Bandwidth, Rate: 10_000},
		Event{At: 20 * time.Millisecond, Duration: 20 * time.Millisecond, Kind: Drop, Rate: 0.5},
		Event{At: 50 * time.Millisecond, Duration: 10 * time.Millisecond, Kind: Partition},
		Event{At: 70 * time.Millisecond, Duration: 10 * time.Millisecond, Kind: Latency, Delay: 5 * time.Millisecond},
	)
	d, err := NewDriver(sim, map[string]*netem.Link{"link:client-server": link}, nil, sched)
	if err != nil {
		t.Fatal(err)
	}
	d.Install()

	check := func(at time.Duration, fn func()) { sim.At(at, fn) }
	check(15*time.Millisecond, func() {
		if bw := link.Bandwidth(); bw != 10_000 {
			t.Errorf("t=15ms bandwidth %v, want dip to 10000", bw)
		}
	})
	check(25*time.Millisecond, func() {
		if bw, loss := link.Bandwidth(), link.Loss(); bw != 10_000 || loss != 0.5 {
			t.Errorf("t=25ms bw=%v loss=%v, want 10000 and 0.5 (overlap)", bw, loss)
		}
	})
	check(35*time.Millisecond, func() {
		if bw, loss := link.Bandwidth(), link.Loss(); bw != 100_000 || loss != 0.5 {
			t.Errorf("t=35ms bw=%v loss=%v, want dip reverted, drop still on", bw, loss)
		}
	})
	check(45*time.Millisecond, func() {
		if loss := link.Loss(); loss != 0 {
			t.Errorf("t=45ms loss %v, want fully reverted", loss)
		}
	})
	check(55*time.Millisecond, func() {
		if loss := link.Loss(); loss != 1 {
			t.Errorf("t=55ms loss %v, want 1 (partition)", loss)
		}
	})
	check(75*time.Millisecond, func() {
		if lat := link.Latency(); lat != 6*time.Millisecond {
			t.Errorf("t=75ms latency %v, want baseline+5ms", lat)
		}
	})
	check(85*time.Millisecond, func() {
		if bw, loss, lat := link.Bandwidth(), link.Loss(), link.Latency(); bw != 100_000 || loss != 0 || lat != time.Millisecond {
			t.Errorf("t=85ms bw=%v loss=%v lat=%v, want all baselines restored", bw, loss, lat)
		}
	})
	if err := sim.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := len(d.Log()); n != 4 {
		t.Fatalf("fault log has %d entries, want 4: %v", n, d.Log())
	}
}

func TestDriverDeterministicAcrossRuns(t *testing.T) {
	sched := Generate(11, time.Second, []string{"link:a", "link:b"}, GenProfile{Drops: 2, Dips: 1, Partitions: 1, Latencies: 1})
	run := func() []Injected {
		sim := vtime.NewSim()
		links := map[string]*netem.Link{
			"link:a": netem.NewLink(sim, "a", 1e6),
			"link:b": netem.NewLink(sim, "b", 1e6),
		}
		d, err := NewDriver(sim, links, nil, sched)
		if err != nil {
			t.Fatal(err)
		}
		d.Install()
		if err := sim.RunUntil(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		return d.Log()
	}
	l1, l2 := run(), run()
	if len(l1) == 0 {
		t.Fatal("generated schedule injected nothing")
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatalf("same schedule replayed differently:\n%v\n%v", l1, l2)
	}
}

func TestDriverSkipsKindsWithoutSimAnalogue(t *testing.T) {
	sim := vtime.NewSim()
	link := netem.NewLink(sim, "l", 1e6)
	sched := NewSchedule(1,
		Event{At: time.Millisecond, Kind: Reset},
		Event{At: time.Millisecond, Duration: time.Millisecond, Kind: Pause},
	)
	d, err := NewDriver(sim, map[string]*netem.Link{"link:l": link}, nil, sched)
	if err != nil {
		t.Fatal(err)
	}
	d.Install()
	if err := sim.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := len(d.Log()); n != 0 {
		t.Fatalf("Reset/Pause should be skipped on the sim plane, logged %v", d.Log())
	}
}

// A CPU window steps a sandbox's share and the baseline returns when the
// last window closes; overlapping windows leave the lowest share in force.
// CPU events never touch a link and link events never touch a sandbox,
// even when an empty target matches both labels.
func TestDriverStepsSandboxShare(t *testing.T) {
	sim := vtime.NewSim()
	link := netem.NewLink(sim, "l", 1e6, netem.WithLatency(time.Millisecond))
	sb, err := sandbox.NewHost(sim, "h", 450e6).NewSandbox("client", 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(3,
		Event{At: 5 * time.Millisecond, Duration: 10 * time.Millisecond, Kind: Bandwidth, Rate: 1e3},
		Event{At: 20 * time.Millisecond, Duration: 30 * time.Millisecond, Kind: CPU, Rate: 0.4},
		Event{At: 30 * time.Millisecond, Duration: 40 * time.Millisecond, Kind: CPU, Target: "client", Rate: 0.6},
	)
	d, err := NewDriver(sim, map[string]*netem.Link{"data:l": link},
		map[string]*sandbox.Sandbox{"client": sb}, sched)
	if err != nil {
		t.Fatal(err)
	}
	d.Install()

	linkAtBase := func(at string) {
		if bw, loss, lat := link.Bandwidth(), link.Loss(), link.Latency(); bw != 1e6 || loss != 0 || lat != time.Millisecond {
			t.Errorf("t=%s link bw=%v loss=%v lat=%v, want baselines", at, bw, loss, lat)
		}
	}
	for _, c := range []struct {
		at     time.Duration
		share  float64
		linkBW float64
	}{
		{10 * time.Millisecond, 0.9, 1e3}, // bandwidth dip only
		{25 * time.Millisecond, 0.4, 1e6}, // first CPU window
		{35 * time.Millisecond, 0.4, 1e6}, // overlap: the lower share wins
		{55 * time.Millisecond, 0.6, 1e6}, // the first closed, the second still open
		{75 * time.Millisecond, 0.9, 1e6}, // both closed: baseline
	} {
		c := c
		sim.At(c.at, func() {
			if got := sb.CPUShare(); got != c.share {
				t.Errorf("t=%v share %v, want %v", c.at, got, c.share)
			}
			if c.linkBW == 1e6 {
				linkAtBase(c.at.String())
			} else if got := link.Bandwidth(); got != c.linkBW {
				t.Errorf("t=%v link bandwidth %v, want %v", c.at, got, c.linkBW)
			}
		})
	}
	if err := sim.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := []Injected{
		{At: 5 * time.Millisecond, Kind: Bandwidth, Target: "data:l", Detail: "1000B/s"},
		{At: 20 * time.Millisecond, Kind: CPU, Target: "client", Detail: "share=0.40"},
		{At: 30 * time.Millisecond, Kind: CPU, Target: "client", Detail: "share=0.60"},
	}
	if got := d.Log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fault log:\n got %v\nwant %v", got, want)
	}
}
