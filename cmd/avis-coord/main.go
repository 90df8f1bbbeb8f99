// Command avis-coord runs the cluster coordinator: the registry avis
// servers join, the heartbeat failure detector that marks them suspect
// and dead, and the admission-controlled placement layer avis clients
// resolve their sessions through.
//
// With -perfstore-dir (or -perfstore-mem) it also hosts the cluster's
// shared live performance store: nodes publish achieved-performance
// samples over the control plane, the coordinator folds them into
// refined per-configuration profiles (over the -perfdb prior, when
// given), and clients fetch the overlays back. The WAL directory
// survives restarts — a recovering coordinator resumes the refined
// model it had learned.
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
	"os"
	"os/signal"
	"syscall"
	"time"

	"tunable/internal/avis"
	"tunable/internal/cluster"
	"tunable/internal/metrics"
	"tunable/internal/perfdb"
	"tunable/internal/perfstore"
)

func main() {
	addr := flag.String("addr", ":7600", "control-plane listen address")
	suspect := flag.Duration("suspect", cluster.DefaultSuspectAfter, "mark a node suspect after this long without a heartbeat")
	dead := flag.Duration("dead", cluster.DefaultDeadAfter, "declare a node dead after this long without a heartbeat")
	tick := flag.Duration("tick", 500*time.Millisecond, "failure-detector evaluation interval")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown drain bound")
	shards := flag.Int("shards", 0, "registry/session shard count, rounded up to a power of two (0 = scaled to GOMAXPROCS)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /healthz on this address (empty = disabled)")
	perfDir := flag.String("perfstore-dir", "", "host the shared live performance store, persisting refined profiles to a write-ahead log in this directory")
	perfMem := flag.Bool("perfstore-mem", false, "host the shared performance store in memory (no persistence)")
	perfPrior := flag.String("perfdb", "", "profiled prior database (JSON, from avis-profile) the live store refines")
	flag.Parse()

	coord := cluster.NewCoordinator(cluster.Config{
		SuspectAfter: *suspect,
		DeadAfter:    *dead,
		Shards:       *shards,
	})
	var perf *perfstore.PerfStore
	if *perfDir != "" || *perfMem {
		var backend perfstore.Store
		if *perfDir != "" {
			wal, err := perfstore.OpenWAL(*perfDir, perfstore.WALOptions{})
			if err != nil {
				log.Fatalf("avis-coord: perfstore: %v", err)
			}
			backend = wal
			fmt.Printf("avis-coord: perfstore WAL in %s (version %d)\n", *perfDir, wal.Version())
		} else {
			backend = perfstore.NewMemStore()
		}
		var prior *perfdb.DB
		if *perfPrior != "" {
			prior = perfdb.New(avis.Spec())
			f, err := os.Open(*perfPrior)
			if err != nil {
				log.Fatalf("avis-coord: perfdb: %v", err)
			}
			if err := prior.Load(f); err != nil {
				log.Fatalf("avis-coord: perfdb: %v", err)
			}
			f.Close()
			fmt.Printf("avis-coord: prior %s: %d records\n", *perfPrior, prior.Len())
		}
		var err error
		perf, err = perfstore.New(avis.Spec(), prior, backend, perfstore.Options{})
		if err != nil {
			log.Fatalf("avis-coord: perfstore: %v", err)
		}
		coord.SetPerfStore(perf)
	}
	if *metricsAddr != "" {
		start := time.Now()
		reg := metrics.New(metrics.WithNow(func() time.Duration { return time.Since(start) }))
		coord.EnableMetrics(reg)
		if perf != nil {
			perf.EnableMetrics(reg)
		}
		msrv, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("avis-coord: %v", err)
		}
		fmt.Printf("avis-coord: metrics on http://%s/metrics\n", msrv.Addr)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("avis-coord: %v", err)
	}
	stopTicker := coord.StartTicker(*tick)
	fmt.Printf("avis-coord: coordinating on %s (suspect %v, dead %v, %d shards)\n",
		l.Addr(), *suspect, *dead, coord.Shards())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- coord.Serve(l) }()
	select {
	case s := <-sig:
		fmt.Printf("avis-coord: %v, shutting down\n", s)
		stopTicker()
		coord.Shutdown(*drain)
		if perf != nil {
			if err := perf.Close(); err != nil {
				log.Printf("avis-coord: perfstore close: %v", err)
			}
		}
	case err := <-errc:
		log.Fatalf("avis-coord: %v", err)
	}
}
