package cluster

import (
	"testing"

	"tunable/internal/metrics"
)

// BenchmarkCounterVSA times the coordinator's hot-path shard counter, the
// pending type in coord.go: it accumulates a net delta locally and commits
// one Add when the pending magnitude crosses commitThreshold (the vsa
// design of SNIPPETS.md Snippet 1). DESIGN §10 records it against the
// per-op atomic and batch-and-replay designs it was chosen over.
func BenchmarkCounterVSA(b *testing.B) {
	ctr := metrics.New().Counter("bench_ops_total", "Counter harness.")
	p := pending{sink: ctr}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.add(1)
	}
	p.flush()
	if got := ctr.Value(); got != float64(b.N) {
		b.Fatalf("committed %v of %d", got, b.N)
	}
}
