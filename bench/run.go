package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// runCtx carries the arguments of one workload run.
type runCtx struct {
	seed    int64
	seconds float64 // length of the measured window
	trace   bool    // traced run: per-layer metrics instead of end-to-end
	// short shrinks every pass to tens of ops and runs one pass: the size
	// the smoke tests use.
	short bool
	quiet bool
}

func (rc *runCtx) logf(format string, args ...any) {
	if !rc.quiet {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
}

// quarter is rc with a quarter of the window: the length of a traced run's
// untraced reference passes.
func (rc *runCtx) quarter() *runCtx {
	q := *rc
	q.seconds /= 4
	return &q
}

// scale returns full, or small under -short.
func (rc *runCtx) scale(full, small int) int {
	if rc.short {
		return small
	}
	return full
}

// passResult is one measured pass: a fixed batch of ops by all clients.
type passResult struct {
	ops     int
	wall    float64 // seconds
	mallocs uint64
	bytes   uint64
	gcPause uint64 // ns
}

// result is what one workload run produced.
type result struct {
	attempted, failed int
	// problems lists failed correctness checks; empty means correct.
	problems []string

	setup  []float64 // seconds, one per set-up made
	ops    []float64 // op latencies, ms
	units  []float64 // unit latencies, ms
	passes []passResult

	layers map[string]float64 // per-layer metrics, traced run only
	rec    *recorder          // its spans
}

// tally is what one closed-loop client measured during a pass.
type tally struct {
	ops, units        []float64 // latencies, ms
	attempted, failed int
}

// passOf is one pass of n concurrent clients: work(i) drives client i and
// fills tallies[i]; their tallies are then folded into r and emptied. It
// returns the ops completed.
func (r *result) passOf(tallies []*tally, work func(i int)) int {
	var wg sync.WaitGroup
	for i := range tallies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			work(i)
		}(i)
	}
	wg.Wait()
	n := 0
	for _, t := range tallies {
		n += len(t.ops)
		r.ops = append(r.ops, t.ops...)
		r.units = append(r.units, t.units...)
		r.attempted += t.attempted
		r.failed += t.failed
		t.ops, t.units, t.attempted, t.failed = t.ops[:0], t.units[:0], 0, 0
	}
	return n
}

func (r *result) problemf(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timeSetup builds the fixture several times, recording each wall time,
// and keeps the last one (the one before is torn down first). One sample of
// a sub-second set-up on a shared box is mostly noise, so a cheap set-up is
// repeated until about a second has gone into it: at least 3 times, at
// most 25. Under -short it is built once.
func (r *result) timeSetup(rc *runCtx, build func() (teardown func(), err error)) (func(), error) {
	var teardown func()
	n := 3
	for i := 0; i < n; i++ {
		if teardown != nil {
			teardown()
		}
		runtime.GC() // the previous fixture's garbage is not this set-up's cost
		t0 := time.Now()
		td, err := build()
		if err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		r.setup = append(r.setup, d)
		teardown = td
		if rc.short {
			break
		}
		if i == 0 && d > 0 {
			if want := int(1 / d); want > n {
				n = want
				if n > 25 {
					n = 25
				}
			}
		}
	}
	return teardown, nil
}

// measure runs pass repeatedly until the window closes (at least minPasses
// times, exactly once under -short). pass performs one fixed batch of ops,
// appends its latencies to r.ops / r.units, and returns how many ops
// completed. Throughput and allocation figures are taken per pass so that a
// run reports their median over passes, not one long average a single stall
// can move.
func (r *result) measure(rc *runCtx, minPasses int, pass func() int) {
	if rc.short {
		minPasses = 1
	}
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	var m0, m1 runtime.MemStats
	for n := 0; n < minPasses || (!rc.short && time.Now().Before(deadline)); n++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		ops := pass()
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		r.passes = append(r.passes, passResult{
			ops: ops, wall: wall,
			mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
			gcPause: m1.PauseTotalNs - m0.PauseTotalNs,
		})
		if ops == 0 {
			return // every op failed; repeating the pass measures nothing
		}
	}
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (r *result) endToEnd() map[string]float64 {
	var perS, allocs []float64
	for _, p := range r.passes {
		if p.ops == 0 || p.wall <= 0 {
			continue
		}
		perS = append(perS, float64(p.ops)/p.wall)
		allocs = append(allocs, float64(p.mallocs)/float64(p.ops))
	}
	ops := sortedCopy(r.ops)
	return map[string]float64{
		"setup_s":       median(r.setup),
		"op_p50_ms":     quantile(ops, 0.5),
		"op_p95_ms":     quantile(ops, 0.95),
		"unit_p50_ms":   median(r.units),
		"ops_per_s":     median(perS),
		"allocs_per_op": median(allocs),
	}
}

// bytesPerOp is the median over passes of heap bytes allocated per op.
func (r *result) bytesPerOp() float64 {
	var v []float64
	for _, p := range r.passes {
		if p.ops > 0 {
			v = append(v, float64(p.bytes)/float64(p.ops))
		}
	}
	return median(v)
}

// allocsPer reports heap allocations per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// nsPer times n calls of fn and returns the median over 5 batches of the
// mean nanoseconds per call.
func nsPer(n int, fn func()) float64 {
	var batches []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches = append(batches, float64(time.Since(t0))/float64(n))
	}
	return median(batches)
}

// runtimeLayers adds the runtime.* context metrics from the untraced
// reference passes of a traced run, so they describe the program and not
// the span recorder.
func (r *result) runtimeLayers(layers map[string]float64) {
	layers["runtime.bytes_per_op"] = r.bytesPerOp()
	var pause uint64
	for _, p := range r.passes {
		pause += p.gcPause
	}
	layers["runtime.gc_pause_ms"] = float64(pause) / 1e6
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	layers["runtime.heap_peak_mb"] = float64(m.HeapSys-m.HeapReleased) / (1 << 20)
}
