package sandbox

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tunable/internal/vtime"
)

// oracleCompute is the per-quantum loop Compute replaced, kept as its
// oracle: it wakes every Quantum, reads the share and draws the quantum's
// jitter from the sandbox's stream as each quantum starts, and credits the
// counters as each quantum ends. It leaves sb.run idle, so CPUTime and
// ActiveTime read the counters it credits.
func oracleCompute(sb *Sandbox, p *vtime.Proc, cycles float64) {
	for cycles > 1e-9 {
		avail := 1.0 - sb.host.osLoad
		share := sb.share
		if share > avail {
			share = avail
		}
		jitter := 1.0 + (sb.acct.rng.Float64()-0.5)*0.01
		rate := sb.host.speed * share * jitter
		quantumCycles := rate * Quantum.Seconds()
		var dt time.Duration
		var used float64
		if cycles >= quantumCycles {
			dt = Quantum
			used = quantumCycles
		} else {
			dt = time.Duration(cycles / rate * float64(time.Second))
			if dt <= 0 {
				dt = time.Nanosecond
			}
			used = cycles
		}
		p.Sleep(dt)
		cycles -= used
		sb.acct.active += dt
		sb.acct.cpu += time.Duration(used / sb.host.speed * float64(time.Second))
	}
}

// diffScript is one seeded world for the differential test: sandboxes on
// two hosts, each driven by a process that alternates idle gaps and
// computations, share changes at scripted instants, and usage reads.
type diffScript struct {
	shares  []float64   // initial share per sandbox; the last sits alone on a second host
	ops     [][]diffOp  // per sandbox
	changes []diffEvent // share changes, by callback
	reads   []diffEvent // usage reads, by a reader process
}

type diffOp struct {
	gap    time.Duration // idle time before the computation, rounded up to a millisecond
	cycles float64
}

type diffEvent struct {
	at    time.Duration
	box   int
	share float64
}

// instant returns a random instant below horizon: a whole millisecond half
// the time, which computations started on whole milliseconds put on quantum
// boundaries often, and any nanosecond otherwise.
func instant(rng *rand.Rand, horizon time.Duration) time.Duration {
	if rng.Intn(2) == 0 {
		return time.Duration(rng.Int63n(int64(horizon/time.Millisecond))) * time.Millisecond
	}
	return time.Duration(rng.Int63n(int64(horizon)))
}

func newDiffScript(seed int64) diffScript {
	rng := rand.New(rand.NewSource(seed))
	const horizon = 3 * time.Second
	sc := diffScript{shares: []float64{0.3, 0.2, 0.25, 0.99}}
	for range sc.shares {
		var ops []diffOp
		for n := 3 + rng.Intn(10); n > 0; n-- {
			var cycles float64
			switch rng.Intn(5) {
			case 0:
				cycles = 0
			case 1: // within one quantum
				cycles = 1e3 + rng.Float64()*5e5
			case 2: // a few quanta
				cycles = 1e6 + rng.Float64()*2e7
			default: // more quanta than one chunk holds
				cycles = 5e7 + rng.Float64()*2e8
			}
			ops = append(ops, diffOp{time.Duration(rng.Int63n(int64(200 * time.Millisecond))), cycles})
		}
		sc.ops = append(sc.ops, ops)
	}
	for n := 10 + rng.Intn(30); n > 0; n-- {
		box := rng.Intn(len(sc.shares))
		share := 0.05 + rng.Float64()*0.28 // three of these fit on one host
		if box == len(sc.shares)-1 {
			share = 0.5 + rng.Float64()*0.5
		}
		sc.changes = append(sc.changes, diffEvent{instant(rng, horizon), box, share})
	}
	for n := 300; n > 0; n-- {
		sc.reads = append(sc.reads, diffEvent{at: instant(rng, horizon), box: rng.Intn(len(sc.shares))})
	}
	return sc
}

// diffTally counts, over a run of the new Compute, how the scripted share
// changes met the computations, so the test can require every case.
type diffTally struct{ idle, midQuantum, onBoundary int }

// runDiff runs sc with the given compute and returns its log, every
// computation's end time and every read, and the computations' ends as
// reads. tally, if non-nil, counts the share changes' cases.
func runDiff(t *testing.T, sc diffScript, compute func(*Sandbox, *vtime.Proc, float64), tally *diffTally) ([]string, []diffEvent) {
	t.Helper()
	sim := vtime.NewSim()
	shared := NewHost(sim, "shared", 450e6)
	alone := NewHost(sim, "alone", 200e6)
	var boxes []*Sandbox
	for i, share := range sc.shares {
		h := shared
		if i == len(sc.shares)-1 {
			h = alone
		}
		sb, err := h.NewSandbox(fmt.Sprintf("app%d", i), share, 0)
		if err != nil {
			t.Fatal(err)
		}
		boxes = append(boxes, sb)
	}
	var log []string
	var ends []diffEvent
	for i, sb := range boxes {
		sim.Spawn(sb.Name(), func(p *vtime.Proc) {
			for k, op := range sc.ops[i] {
				// Start on a whole millisecond, so quantum boundaries fall on
				// whole milliseconds too.
				p.SleepUntil((p.Now() + op.gap + time.Millisecond - 1).Truncate(time.Millisecond))
				compute(sb, p, op.cycles)
				log = append(log, fmt.Sprintf("%s op %d ends %v", sb.Name(), k, p.Now()))
				ends = append(ends, diffEvent{at: p.Now(), box: i})
			}
		})
	}
	for _, ch := range sc.changes {
		sb := boxes[ch.box]
		sim.At(ch.at, func() {
			if tally != nil {
				switch c := &sb.run; {
				case !c.busy:
					tally.idle++
				case (sim.Now()-c.start)%Quantum == 0:
					tally.onBoundary++
				default:
					tally.midQuantum++
				}
			}
			if err := sb.SetCPUShare(ch.share); err != nil {
				t.Error(err)
			}
		})
	}
	sim.Spawn("reader", func(p *vtime.Proc) {
		for _, r := range sc.reads {
			p.SleepUntil(r.at)
			// Yield once: any process waking at this instant runs first.
			p.Sleep(0)
			sb := boxes[r.box]
			log = append(log, fmt.Sprintf("%v read %s cpu %v active %v", p.Now(), sb.Name(), sb.CPUTime(), sb.ActiveTime()))
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return log, ends
}

// TestComputeMatchesPerQuantumOracle runs seeded scripts — several
// sandboxes on one host, random cycle counts, share changes and usage reads
// at random instants — through Compute and through the per-quantum loop it
// replaced, and requires every computation's end time and every read to be
// equal. The two agree exactly at quantum boundaries under this tie rule:
//
//   - A read at the instant a quantum ends counts that quantum. The oracle
//     credits it only when its process resumes, so the oracle's reader
//     yields once at the instant first, behind every process waking then.
//     Besides the random instants, the reads include the instant each
//     computation ends, where the last quantum is rarely a full one.
//   - A share change at the instant a quantum ends applies to the quantum
//     that starts there. The oracle reads the share as the quantum starts,
//     and a timer callback runs before the processes due at its instant
//     resume, so the changes here are callbacks. A change made by a
//     process after the computing process ran at that instant is where
//     the two differ; TestShareSetByProcessAtBoundary covers it.
func TestComputeMatchesPerQuantumOracle(t *testing.T) {
	var tally diffTally
	for seed := int64(1); seed <= 100; seed++ {
		sc := newDiffScript(seed)
		_, ends := runDiff(t, sc, oracleCompute, nil)
		sc.reads = append(sc.reads, ends...)
		slices.SortStableFunc(sc.reads, func(a, b diffEvent) int { return int(a.at - b.at) })
		got, _ := runDiff(t, sc, (*Sandbox).Compute, &tally)
		want, _ := runDiff(t, sc, oracleCompute, nil)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, oracle %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d is %q, oracle %q", seed, i, got[i], want[i])
			}
		}
	}
	t.Logf("share changes: %d idle, %d mid-quantum, %d on a boundary", tally.idle, tally.midQuantum, tally.onBoundary)
	if tally.idle == 0 || tally.midQuantum == 0 || tally.onBoundary == 0 {
		t.Fatalf("the scripts missed a case: %+v", tally)
	}
}

// A process that reads at the instant a quantum ends, before the computing
// process resumes, already sees the quantum counted: at a boundary inside
// a chunk and at the computation's end, where the last quantum is partial.
func TestReadAtBoundaryCountsTheQuantum(t *testing.T) {
	const cycles = 2.5 * 0.5 * 450e6 * 0.01 // about two and a half quanta
	world := func(readAt ...time.Duration) (end time.Duration, total [2]time.Duration, reads [][2]time.Duration) {
		sim := vtime.NewSim()
		sb, err := NewHost(sim, "h", 450e6).NewSandbox("app", 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Armed before the computation's, each reader's timer fires ahead of
		// it at the same instant.
		reads = make([][2]time.Duration, len(readAt))
		for i, at := range readAt {
			sim.Spawn("reader", func(p *vtime.Proc) {
				p.SleepUntil(at)
				reads[i] = [2]time.Duration{sb.CPUTime(), sb.ActiveTime()}
			})
		}
		sim.Spawn("app", func(p *vtime.Proc) {
			sb.Compute(p, cycles)
			end = p.Now()
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return end, [2]time.Duration{sb.CPUTime(), sb.ActiveTime()}, reads
	}
	end, total, _ := world()
	if end <= 2*Quantum || end >= 3*Quantum {
		t.Fatalf("the computation ends at %v, want within its third quantum", end)
	}
	_, _, reads := world(Quantum, end)
	if reads[0][1] != Quantum || reads[0][0] <= 0 {
		t.Errorf("read at the first boundary: cpu %v active %v, want one quantum", reads[0][0], reads[0][1])
	}
	if reads[1] != total {
		t.Errorf("read at the end: %v, want the computation's total %v", reads[1], total)
	}
}

// A share change made at the instant a quantum starts applies to that
// quantum, whichever of the setter and the computing process runs first at
// that instant, and whether the setter is a process or a timer callback:
// the computation matches the per-quantum loop's when the setter runs
// first. Here the per-quantum loop differs: when the computing process ran
// first, it had already begun the quantum at the old share. (The
// differential test's callbacks always run first: a callback armed before
// the run fires ahead of the process timers due at its instant.)
func TestShareSetByProcessAtBoundary(t *testing.T) {
	const cycles = 5 * 0.5 * 450e6 * 0.01 // about five quanta at share 0.5
	type result struct{ end, cpu, active time.Duration }
	const (
		byCallback = iota
		processFirst
		processAfter
	)
	// world computes from time 0 at share 0.5 and moves the share to 0.25
	// at instant at, by a callback or by a process that runs before or
	// after the computing process at that instant.
	world := func(compute func(*Sandbox, *vtime.Proc, float64), at time.Duration, setter int) result {
		sim := vtime.NewSim()
		sb, err := NewHost(sim, "h", 450e6).NewSandbox("app", 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		set := func() {
			if err := sb.SetCPUShare(0.25); err != nil {
				t.Error(err)
			}
		}
		var r result
		app := func() {
			sim.Spawn("app", func(p *vtime.Proc) {
				compute(sb, p, cycles)
				r.end = p.Now()
			})
		}
		switch setter {
		case byCallback:
			sim.At(at, set)
			app()
		case processFirst:
			// Spawned first, and armed before the computation's timers.
			sim.Spawn("setter", func(p *vtime.Proc) {
				if at > 0 {
					p.SleepUntil(at)
				}
				set()
			})
			app()
		case processAfter:
			// Spawned second, and armed after the per-quantum loop armed
			// its wake-up for at.
			app()
			sim.Spawn("setter", func(p *vtime.Proc) {
				if at > 0 {
					p.SleepUntil(at - Quantum + 1)
					p.SleepUntil(at)
				}
				set()
			})
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		r.cpu, r.active = sb.CPUTime(), sb.ActiveTime()
		return r
	}
	for _, at := range []time.Duration{0, 2 * Quantum} {
		want := world(oracleCompute, at, processFirst)
		if got := world(oracleCompute, at, processAfter); got == want {
			t.Errorf("at %v: the per-quantum loop reads %+v with the setter first and after", at, got)
		}
		for setter, name := range []string{"a callback", "a process first", "a process after"} {
			if got := world((*Sandbox).Compute, at, setter); got != want {
				t.Errorf("at %v, share set by %s: %+v, want %+v", at, name, got, want)
			}
		}
	}
}
