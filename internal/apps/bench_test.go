package apps

import (
	"testing"
	"time"

	"tunable/internal/resource"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
)

// BenchmarkAppsMix measures the mixed-workload harness end to end: a
// seeded video+foveal mix per iteration, reporting wall-clock session
// throughput and the per-class p95 QoS scores of the last run (the
// numbers BENCH_apps.json gates).
func BenchmarkAppsMix(b *testing.B) {
	video, foveal := NewVideo(), NewFoveal()
	// Build both profile databases outside the timed region.
	if _, err := video.DB(); err != nil {
		b.Fatal(err)
	}
	if _, err := foveal.DB(); err != nil {
		b.Fatal(err)
	}
	const sessions = 6 // 4 video + 2 foveal
	var last *MixReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := RunMix(HarnessConfig{
			Seed:     42,
			LinkPool: 1.2e6,
			Classes: []ClassConfig{
				{App: video, Sessions: 4, ArrivalEvery: 300 * time.Millisecond},
				{App: foveal, Sessions: 2, ArrivalEvery: 500 * time.Millisecond},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(sessions*b.N)/secs, "sessions/sec")
	}
	for _, c := range last.Classes {
		b.ReportMetric(c.ScoreP95, c.Class+"-p95-qos")
	}
}

// BenchmarkAppsArbiter measures one acquire/release round trip through
// the cross-class arbiter — the admission hot path every session pays.
func BenchmarkAppsArbiter(b *testing.B) {
	arb, err := scheduler.NewArbiter(
		resource.Vector{resource.Bandwidth: 10e6, resource.CPU: 16},
		[]scheduler.ClassShare{
			{Class: "video", Weight: 1},
			{Class: "foveal", Weight: 1},
		})
	if err != nil {
		b.Fatal(err)
	}
	want := resource.Vector{resource.Bandwidth: 128e3, resource.CPU: 0.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := arb.Acquire("video", want)
		if err != nil {
			b.Fatal(err)
		}
		arb.Release(g)
	}
}

// BenchmarkAppsVideoSession measures one fixed-configuration video
// stream in a fresh virtual world — the per-session cost of the promoted
// video application without harness overhead.
func BenchmarkAppsVideoSession(b *testing.B) {
	v := NewVideo()
	cfg := spec.Config{"fps": spec.Int(30), "q": spec.Enum("high")}
	res := resource.Vector{resource.Bandwidth: 384e3, resource.CPU: 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := v.profileRun(cfg, res)
		if err != nil {
			b.Fatal(err)
		}
		if m["frame_rate"] <= 0 {
			b.Fatal("no frames delivered")
		}
	}
}

// benchScheduler is the foveal class's scheduler over its profiled
// database — 12 candidates on a bandwidth × CPU lattice, three preferences
// — and a resource point inside the lattice, as a contended session's
// retune sees it.
func benchScheduler(b *testing.B) (*scheduler.Scheduler, resource.Vector) {
	b.Helper()
	foveal := NewFoveal()
	db, err := foveal.DB()
	if err != nil {
		b.Fatal(err)
	}
	s, err := scheduler.New(foveal.Spec(), db, foveal.Preferences())
	if err != nil {
		b.Fatal(err)
	}
	res := resource.Vector{resource.Bandwidth: 150e3, resource.CPU: 0.12}
	if _, err := s.Select(res); err != nil { // compile the lattices
		b.Fatal(err)
	}
	return s, res
}

// BenchmarkSchedulerSelect measures one scheduling decision, validity
// ranges included — what every session pays per retune period.
func BenchmarkSchedulerSelect(b *testing.B) {
	s, res := benchScheduler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Select(res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerSelectDerated measures the decision as the harness
// makes it while classes contend: planned against 80% of the estimate.
func BenchmarkSchedulerSelectDerated(b *testing.B) {
	s, res := benchScheduler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SelectDerated(res, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}
