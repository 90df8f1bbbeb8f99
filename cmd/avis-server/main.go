// Command avis-server runs the active visualization server over real TCP:
// it generates a synthetic image set, stores it as wavelet pyramids, and
// answers progressive foveal requests with the codec each client announces.
//
// With -coord it joins a cluster: the server registers with the avis-coord
// coordinator (address, image-store contents, declared capacity) and renews
// the registration with heartbeats carrying its live session count, so the
// coordinator can place and fail over client sessions.
//
// With -metrics-addr it also exposes live telemetry: /metrics serves the
// avis_* metric families in Prometheus text exposition format (append
// ?format=json for JSON) and /healthz answers liveness probes.
//
// SIGINT/SIGTERM shut it down gracefully: the listener closes, the node
// deregisters from the coordinator (so sessions fail over immediately),
// and in-flight sessions drain for up to -drain before being cut.
//
// Usage:
//
//	avis-server -addr :7465 -side 1024 -levels 4 -images 3 \
//	            -coord localhost:7600 -node-id node-a -metrics-addr :9090
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
)

func main() {
	addr := flag.String("addr", ":7465", "listen address")
	side := flag.Int("side", 1024, "image side in pixels (divisible by 2^levels)")
	levels := flag.Int("levels", 4, "wavelet decomposition depth")
	images := flag.Int("images", 3, "number of synthetic images to serve")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /healthz on this address (empty = disabled)")
	ioTimeout := flag.Duration("io-timeout", 0, "drop a connection whose frame I/O makes no progress for this long (0 = wait forever)")
	coord := flag.String("coord", "", "register with the avis-coord coordinator at this address (empty = standalone)")
	nodeID := flag.String("node-id", "", "cluster node name (default: the advertised address)")
	advertise := flag.String("advertise", "", "data-plane address to announce to the coordinator (default: the listen address)")
	cpu := flag.Float64("cpu", 1.0, "CPU share capacity declared to cluster admission control (0,1]")
	mem := flag.Int64("mem", 512<<20, "memory capacity in bytes declared to cluster admission control")
	heartbeat := flag.Duration("heartbeat", cluster.DefaultHeartbeat, "cluster heartbeat interval")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown drain bound for in-flight sessions")
	flag.Parse()

	seeds := make([]int64, *images)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	srv, err := avis.NewRealServer(*side, *levels, seeds, avis.SharedStore())
	if err != nil {
		log.Fatalf("avis-server: %v", err)
	}
	srv.SetIOTimeout(*ioTimeout)
	if *metricsAddr != "" {
		start := time.Now()
		reg := metrics.New(metrics.WithNow(func() time.Duration { return time.Since(start) }))
		srv.EnableMetrics(reg)
		msrv, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("avis-server: %v", err)
		}
		fmt.Printf("avis-server: metrics on http://%s/metrics\n", msrv.Addr)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("avis-server: %v", err)
	}
	// The store signature is what edge caches announce to front this
	// store (avis-edge -sig) and what failover pins sessions to.
	fmt.Printf("avis-server: serving %d images (%d², %d levels) on %s (store signature %s)\n",
		*images, *side, *levels, l.Addr(),
		cluster.NodeInfo{Side: *side, Levels: *levels, Seeds: seeds}.StoreSig())

	var agent *cluster.Agent
	if *coord != "" {
		dataAddr := *advertise
		if dataAddr == "" {
			dataAddr = l.Addr().String()
		}
		id := *nodeID
		if id == "" {
			id = dataAddr
		}
		agent = cluster.NewAgent(*coord, cluster.NodeInfo{
			ID: id, Addr: dataAddr,
			CPU: *cpu, MemBytes: *mem,
			Side: *side, Levels: *levels, Seeds: seeds,
		}, *heartbeat, func() cluster.Load {
			return cluster.Load{ActiveSessions: srv.ActiveSessions()}
		})
		if err := agent.Start(); err != nil {
			log.Fatalf("avis-server: join cluster: %v", err)
		}
		fmt.Printf("avis-server: joined cluster at %s as %q (heartbeat %v)\n", *coord, id, *heartbeat)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case s := <-sig:
		fmt.Printf("avis-server: %v, draining (bound %v)\n", s, *drain)
		if agent != nil {
			agent.Close(true) // deregister so the coordinator fails sessions over now
		}
		if forced := srv.Shutdown(*drain); forced > 0 {
			fmt.Printf("avis-server: cut %d session(s) still open after drain\n", forced)
		}
	case err := <-errc:
		log.Fatalf("avis-server: %v", err)
	}
}
