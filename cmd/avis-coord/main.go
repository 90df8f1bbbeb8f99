// Command avis-coord runs the cluster coordinator: the registry avis
// servers join, the heartbeat failure detector that marks them suspect
// and dead, and the admission-controlled placement layer avis clients
// resolve their sessions through.
//
// With -perfstore-dir (or -perfstore-mem) it also hosts the cluster's
// shared live performance store: nodes publish achieved-performance
// samples over the control plane, the coordinator folds them into
// refined per-configuration profiles, and clients fetch them back. The
// directory is the one avis-profile -out writes its testbed sweep into,
// so the coordinator starts from the profiled model; it survives
// restarts — a recovering coordinator resumes the refined model it had
// learned.
//
// With -metrics-addr it exposes the cluster_* metric families (nodes by
// state, node deaths, failovers, heartbeat gaps, sessions) plus the
// sched_admission_* reservation counters — and the perfstore_* families
// when the store is hosted — at /metrics, and /healthz for liveness
// probes.
//
// SIGINT/SIGTERM shut it down gracefully: the control listener closes,
// open control connections are torn down, and the process exits once the
// handlers drain (bounded by -drain).
//
// Usage:
//
//	avis-coord -addr :7600 -suspect 3s -dead 10s -metrics-addr :9091
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"tunable/cmd/internal/daemon"
	"tunable/internal/avis"
	"tunable/internal/cluster"
	"tunable/internal/perfstore"
)

func main() {
	addr := flag.String("addr", ":7600", "control-plane listen address")
	suspect := flag.Duration("suspect", cluster.DefaultSuspectAfter, "mark a node suspect after this long without a heartbeat")
	dead := flag.Duration("dead", cluster.DefaultDeadAfter, "declare a node dead after this long without a heartbeat")
	tick := flag.Duration("tick", 500*time.Millisecond, "failure-detector evaluation interval")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown drain bound")
	shards := flag.Int("shards", 0, "registry/session shard count, rounded up to a power of two (0 = scaled to GOMAXPROCS)")
	perfDir := flag.String("perfstore-dir", "", "host the shared live performance store, persisting refined profiles to a write-ahead log in this directory")
	perfMem := flag.Bool("perfstore-mem", false, "host the shared performance store in memory (no persistence)")
	var tel daemon.Telemetry
	tel.Define(flag.CommandLine)
	flag.Parse()

	coord := cluster.NewCoordinator(cluster.Config{
		SuspectAfter: *suspect,
		DeadAfter:    *dead,
		Shards:       *shards,
	})
	var perf *perfstore.PerfStore
	if *perfDir != "" || *perfMem {
		store := perfstore.NewMemStore()
		var err error
		if *perfDir != "" {
			if store, err = perfstore.OpenWAL(*perfDir, perfstore.WALOptions{}); err != nil {
				log.Fatalf("avis-coord: perfstore: %v", err)
			}
			fmt.Printf("avis-coord: perfstore WAL in %s (version %d, %d configurations)\n",
				*perfDir, store.Version(), len(store.Keys()))
		}
		perf, err = perfstore.New(avis.Spec(), nil, store, perfstore.Options{})
		if err != nil {
			log.Fatalf("avis-coord: perfstore: %v", err)
		}
		coord.SetPerfStore(perf)
	}
	reg, err := tel.Start("avis-coord: ")
	if err != nil {
		log.Fatalf("avis-coord: %v", err)
	}
	if reg != nil {
		coord.EnableMetrics(reg)
		if perf != nil {
			perf.EnableMetrics(reg)
		}
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("avis-coord: %v", err)
	}
	stopTicker := coord.StartTicker(*tick)
	fmt.Printf("avis-coord: coordinating on %s (suspect %v, dead %v, %d shards)\n",
		l.Addr(), *suspect, *dead, coord.Shards())

	fmt.Printf("avis-coord: %v, shutting down\n", daemon.Serve("avis-coord", l, coord.Serve))
	stopTicker()
	coord.Shutdown(*drain)
	if perf != nil {
		if err := perf.Close(); err != nil {
			log.Printf("avis-coord: perfstore close: %v", err)
		}
	}
}
