package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/metrics"
)

// Control-plane benchmarks behind BENCH_control.json. HeartbeatDelta is
// the liveness path (batched binary deltas applied to the sharded
// registry; ns/op is per logical heartbeat). Resolve measures the
// placement decision (grant + teardown) at 10k registered nodes.

const benchNodes = 10000

func benchCoordinator(b *testing.B, shards int) (*Coordinator, []string) {
	b.Helper()
	var vnow atomic.Int64
	now := func() time.Duration { return time.Duration(vnow.Load()) }
	c := NewCoordinator(Config{
		SuspectAfter: time.Second,
		DeadAfter:    3 * time.Second,
		Now:          now,
		Shards:       shards,
	})
	c.EnableMetrics(metrics.New(metrics.WithNow(now)))
	ids := make([]string, benchNodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%05d", i)
		info := NodeInfo{
			ID: ids[i], Addr: "10.0.0.1:1", CPU: 1,
			Side: 8, Levels: 1, Seeds: []int64{42},
		}
		if err := c.Register(info); err != nil {
			b.Fatal(err)
		}
	}
	return c, ids
}

// BenchmarkControlHeartbeatDelta is the heartbeat wire path: binary delta
// batches of 128 entries against the sharded registry; ns/op is per
// logical heartbeat (one entry), with the frame encode, dispatch, and ack
// encode amortized over the batch exactly as on the wire.
func BenchmarkControlHeartbeatDelta(b *testing.B) {
	const batch = 128
	c, ids := benchCoordinator(b, 16)
	entries := make([]DeltaEntry, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries = append(entries, DeltaEntry{ID: ids[i%benchNodes], Sessions: int32(i & 1)})
		if len(entries) == batch || i == b.N-1 {
			frame, err := EncodeDeltaBatch(entries)
			if err != nil {
				b.Fatal(err)
			}
			ack := c.dispatch(frame)
			bufpool.Put(frame)
			if !ack.OK || len(ack.Unknown) != 0 {
				b.Fatalf("delta refused: %+v", ack)
			}
			reply, err := encodeAck(bufpool.Get(512)[:0], &ack)
			if err != nil {
				b.Fatal(err)
			}
			bufpool.Put(reply)
			entries = entries[:0]
		}
	}
}

// BenchmarkControlResolve measures one placement decision round trip
// (resolve + end-session) with 10k registered nodes in 16 shards.
func BenchmarkControlResolve(b *testing.B) {
	c, _ := benchCoordinator(b, 16)
	sids := make([]string, 512)
	for i := range sids {
		sids[i] = fmt.Sprintf("sess-%04d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sid := sids[i%len(sids)]
		if _, err := c.Resolve(ResolveRequest{SID: sid, CPU: 0.001}); err != nil {
			b.Fatal(err)
		}
		c.EndSession(sid)
	}
}
