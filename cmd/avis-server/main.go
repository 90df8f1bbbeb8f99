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

	"tunable/cmd/internal/daemon"
	"tunable/internal/avis"
	"tunable/internal/cluster"
)

func main() {
	var node daemon.Node
	node.Define(flag.CommandLine, ":7465", "listen address")
	side := flag.Int("side", 1024, "image side in pixels (divisible by 2^levels)")
	levels := flag.Int("levels", 4, "wavelet decomposition depth")
	images := flag.Int("images", 3, "number of synthetic images to serve")
	flag.Parse()

	seeds := make([]int64, *images)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	srv, err := avis.NewRealServer(*side, *levels, seeds, avis.SharedStore())
	if err != nil {
		log.Fatalf("avis-server: %v", err)
	}
	srv.SetIOTimeout(node.IOTimeout)
	reg, err := node.Metrics.Start("avis-server: ")
	if err != nil {
		log.Fatalf("avis-server: %v", err)
	}
	if reg != nil {
		srv.EnableMetrics(reg)
	}
	l, err := net.Listen("tcp", node.Addr)
	if err != nil {
		log.Fatalf("avis-server: %v", err)
	}
	info := node.Info(l.Addr())
	info.Side, info.Levels, info.Seeds = *side, *levels, seeds
	// The store signature is what edge caches announce to front this
	// store (avis-edge -sig) and what failover pins sessions to.
	fmt.Printf("avis-server: serving %d images (%d², %d levels) on %s (store signature %s)\n",
		*images, *side, *levels, l.Addr(), info.StoreSig())
	node.Join("avis-server", info, func() cluster.Load {
		return cluster.Load{ActiveSessions: srv.ActiveSessions()}
	})
	node.Serve("avis-server", l, srv.Serve, srv.Shutdown)
}
