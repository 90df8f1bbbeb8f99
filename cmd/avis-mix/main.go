// Command avis-mix runs a seeded mixed workload — frame-rate-adaptive
// video streams and foveal image sessions — on one shared sandbox pool in
// virtual time, with per-class tuning agents planning through the
// cross-class arbiter and an optional chaos schedule replayed against the
// session links. The per-class QoS report is deterministic: two runs with
// the same seed and shape emit byte-identical JSON, chaos included.
//
// Usage:
//
//	avis-mix -seed 42                          # default mix, report to stdout
//	avis-mix -seed 42 -chaos                   # same mix under injected faults
//	avis-mix -video 12 -foveal 6 -hosts 6      # a bigger mix
//	avis-mix -seed 42 -out mix.json            # write the report to a file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"tunable/internal/apps"
)

func main() {
	seed := flag.Uint64("seed", 1, "deterministic seed for arrivals, session streams, and chaos")
	video := flag.Int("video", 8, "video-stream sessions")
	foveal := flag.Int("foveal", 4, "foveal image sessions")
	hosts := flag.Int("hosts", 4, "sandbox hosts in the shared pool")
	linkPool := flag.Float64("link-pool", 1.5e6, "total link bandwidth pool, bytes/s")
	videoWeight := flag.Float64("video-weight", 1, "video class arbitration weight")
	fovealWeight := flag.Float64("foveal-weight", 1, "foveal class arbitration weight")
	arrival := flag.Duration("arrival", 400*time.Millisecond, "mean inter-arrival gap per class")
	chaos := flag.Bool("chaos", false, "replay a seeded chaos schedule against the session links")
	chaosHorizon := flag.Duration("chaos-horizon", 20*time.Second, "window the chaos schedule covers")
	out := flag.String("out", "", "write the JSON report here instead of stdout")
	flag.Parse()

	cfg := apps.HarnessConfig{
		Seed:     *seed,
		Hosts:    *hosts,
		LinkPool: *linkPool,
		Classes: []apps.ClassConfig{
			{App: apps.NewVideo(), Sessions: *video, ArrivalEvery: *arrival, Weight: *videoWeight},
			{App: apps.NewFoveal(), Sessions: *foveal, ArrivalEvery: *arrival, Weight: *fovealWeight},
		},
	}
	if *chaos {
		sched := apps.MixChaos(*seed, *chaosHorizon)
		cfg.Chaos = &sched
	}

	rep, err := apps.RunMix(cfg)
	if err != nil {
		log.Fatalf("avis-mix: %v", err)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("avis-mix: encoding report: %v", err)
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			log.Fatalf("avis-mix: %v", err)
		}
		fmt.Fprintf(os.Stderr, "avis-mix: report written to %s\n", *out)
		return
	}
	os.Stdout.Write(buf)
}
