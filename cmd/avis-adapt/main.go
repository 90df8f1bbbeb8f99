// Command avis-adapt runs the paper's three run-time adaptation
// experiments (Section 7) end to end on the virtual-time testbed: the full
// framework — monitoring agent, performance database, resource scheduler,
// steering agent — drives the visualization application through a mid-run
// resource change, alongside the two non-adaptive baselines the paper
// plots.
//
// The drift experiment closes the adaptation loop on live telemetry: the
// same run is driven twice through a mid-run bandwidth dip the offline
// database was never profiled for — once reading the stale database only
// (it stays stuck), once with achieved image metrics folding back into a
// live performance store (it re-converges under the deadline). With
// -perfstore-dir the online run's refined model persists to a write-ahead
// log and survives the process.
//
// Usage:
//
//	avis-adapt -exp 1      # codec adaptation to a bandwidth drop
//	avis-adapt -exp 1d     # the same with distributed monitoring agents (not in all)
//	avis-adapt -exp 2      # resolution adaptation to a CPU drop
//	avis-adapt -exp 3      # fovea adaptation to a CPU drop
//	avis-adapt -exp drift  # online store vs stale offline database
//	avis-adapt -exp drift -seed 7 -perfstore-dir /tmp/perfwal
//	avis-adapt -exp all
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"tunable/internal/core"
	"tunable/internal/expt"
	"tunable/internal/perfstore"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: 1, 1d, 2, 3, drift, or all")
	events := flag.Bool("events", false, "print the framework's decision log")
	seed := flag.Uint64("seed", 42, "fault-schedule seed for the drift experiment")
	perfDir := flag.String("perfstore-dir", "", "persist the drift experiment's online store to a write-ahead log in this directory")
	flag.Parse()

	printEvents := func(evs []core.Event) {
		if *events {
			for _, ev := range evs {
				fmt.Printf("  %-12v %-12s %s\n", ev.At, ev.Kind, ev.Detail())
			}
			fmt.Println()
		}
	}
	run := func(id string, f func() (*expt.ExperimentResult, error)) {
		e, err := f()
		if err != nil {
			log.Fatalf("avis-adapt: experiment %s: %v", id, err)
		}
		if err := e.Fig.Render(os.Stdout); err != nil {
			log.Fatalf("avis-adapt: %v", err)
		}
		if id == "3" {
			if err := expt.Figure7d(e).Render(os.Stdout); err != nil {
				log.Fatalf("avis-adapt: %v", err)
			}
		}
		fmt.Printf("summary %s: adaptive %.2fs (%d switches, final %s)",
			id, e.Adaptive.Total.Seconds(), e.Adaptive.Switches, e.Adaptive.Final.Key())
		if e.StaticA.Label != "" { // the distributed run has no baselines
			fmt.Printf(" | %s %.2fs | %s %.2fs",
				e.StaticA.Label, e.StaticA.Total.Seconds(), e.StaticB.Label, e.StaticB.Total.Seconds())
		}
		fmt.Print("\n\n")
		printEvents(e.Adaptive.Events)
	}
	runDrift := func() {
		store := perfstore.NewMemStore()
		if *perfDir != "" {
			var err error
			if store, err = perfstore.OpenWAL(*perfDir, perfstore.WALOptions{}); err != nil {
				log.Fatalf("avis-adapt: perfstore: %v", err)
			}
		}
		fig, offline, online, err := expt.DriftWith(*seed, store)
		if err != nil {
			log.Fatalf("avis-adapt: drift: %v", err)
		}
		if err := fig.Render(os.Stdout); err != nil {
			log.Fatalf("avis-adapt: %v", err)
		}
		offHits, offPost := expt.DeadlineHits(offline)
		onHits, onPost := expt.DeadlineHits(online)
		fmt.Printf("summary drift: offline %.2fs (%d switches, final %s, %d/%d in deadline) | online %.2fs (%d switches, final %s, %d/%d in deadline)\n\n",
			offline.Total.Seconds(), offline.Switches, offline.Final.Key(), offHits, offPost,
			online.Total.Seconds(), online.Switches, online.Final.Key(), onHits, onPost)
		printEvents(online.Events)
	}
	exps := map[string]func() (*expt.ExperimentResult, error){
		"1": expt.Experiment1, "1d": expt.Experiment1Distributed, "2": expt.Experiment2, "3": expt.Experiment3,
	}
	switch f, ok := exps[*exp]; {
	case ok:
		run(*exp, f)
	case *exp == "drift":
		runDrift()
	case *exp == "all": // 1d is not part of it
		for _, id := range []string{"1", "2", "3"} {
			run(id, exps[id])
		}
		runDrift()
	default:
		log.Fatalf("avis-adapt: unknown experiment %q", *exp)
	}
}
