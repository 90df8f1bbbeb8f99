// Command avis-edge runs the edge cache tier over real TCP: a proxy that
// speaks the avis frame protocol on both sides, serving coarse pyramid
// levels from a bounded LRU+TTL chunk cache keyed by (store signature,
// image, level, region) while fine levels stream through from the origin
// server. Concurrent cache misses for one chunk collapse into a single
// origin round, and -prewarm predicts the client's next foveal region by
// linear trajectory extrapolation and fetches its coarse chunks early.
//
// With -coord it joins the cluster as an edge node (role=edge, announcing
// the origin's store signature): the coordinator then prefers it for
// coarse-level sessions (cluster.WithPreferEdge) and falls back to the
// origin when the edge fails.
//
// With -metrics-addr it exposes the edge_cache_* and edge_* metric
// families on /metrics (Prometheus text; append ?format=json for JSON).
//
// Usage:
//
//	avis-edge -addr :7470 -origin localhost:7465 -sig $(store signature) \
//	          -prewarm -coord localhost:7600 -metrics-addr :9091
package main

import (
	"flag"
	"fmt"
	"log"
	"net"

	"tunable/cmd/internal/daemon"
	"tunable/internal/cluster"
	"tunable/internal/edge"
)

func main() {
	var node daemon.Node
	node.Define(flag.CommandLine, ":7470", "client-facing listen address")
	origin := flag.String("origin", "localhost:7465", "origin avis-server address")
	originCodec := flag.String("origin-codec", edge.DefaultOriginCodec, "codec on the origin leg")
	sig := flag.String("sig", "", "origin store signature for cache keys and cluster registration")
	entries := flag.Int("cache-entries", edge.DefaultCacheEntries, "cache bound: live chunks (<0 = unbounded)")
	bytes := flag.Int64("cache-bytes", edge.DefaultCacheBytes, "cache bound: summed payload bytes (<0 = unbounded)")
	ttl := flag.Duration("ttl", edge.DefaultTTL, "cached chunk lifetime")
	coarseMax := flag.Int("coarse-max", 0, "largest pyramid level served from cache (0 = all below full resolution, <0 = cache nothing)")
	prewarm := flag.Bool("prewarm", false, "prefetch predicted fovea regions (linear trajectory extrapolation)")
	segBytes := flag.Int("seg-bytes", 0, "client-facing reply segment size (0 = protocol default)")
	flag.Parse()

	p, err := edge.New(edge.Config{
		OriginAddr:   *origin,
		OriginCodec:  *originCodec,
		Sig:          *sig,
		CacheEntries: *entries,
		CacheBytes:   *bytes,
		TTL:          *ttl,
		CoarseMax:    *coarseMax,
		SegBytes:     *segBytes,
		IOTimeout:    node.IOTimeout,
		Prewarm:      *prewarm,
	})
	if err != nil {
		log.Fatalf("avis-edge: %v", err)
	}
	reg, err := node.Metrics.Start("avis-edge: ")
	if err != nil {
		log.Fatalf("avis-edge: %v", err)
	}
	if reg != nil {
		p.EnableMetrics(reg)
	}
	if err := p.Start(); err != nil {
		log.Fatalf("avis-edge: %v", err)
	}
	geom := p.Geometry()
	l, err := net.Listen("tcp", node.Addr)
	if err != nil {
		log.Fatalf("avis-edge: %v", err)
	}
	fmt.Printf("avis-edge: fronting %s (%d images, %d², %d levels) on %s\n",
		*origin, geom.NumImages, geom.Side, geom.Levels, l.Addr())

	info := node.Info(l.Addr())
	info.Role, info.Side, info.Levels, info.Sig = cluster.RoleEdge, geom.Side, geom.Levels, *sig
	node.Join("avis-edge", info, func() cluster.Load {
		return cluster.Load{ActiveSessions: p.ActiveSessions()}
	})
	node.Serve("avis-edge", l, p.Serve, p.Shutdown)
}
