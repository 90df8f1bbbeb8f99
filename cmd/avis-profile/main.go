// Command avis-profile populates the performance database of the active
// visualization application by sweeping its configurations through the
// virtual testbed, exactly as the paper's driver program does (Section 5),
// and folds the sweep into the performance store directory -out names —
// a perfstore write-ahead log, the model's one on-disk form. Into an empty
// directory the sweep lands as is; into a deployed store, existing
// refined records are weight-averaged with the sweep's and new lattice
// points are added, so a re-profiled testbed updates the store without
// discarding what live telemetry already taught it.
//
// Usage:
//
//	avis-profile -out perfwal -figure all
//	avis-profile -out fig6a -figure 6a -refine 0.3
//	avis-profile -out /var/lib/avis/perfwal -figure 6b
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"tunable/internal/avis"
	"tunable/internal/expt"
	"tunable/internal/perfdb"
	"tunable/internal/perfstore"
	"tunable/internal/profiler"
	"tunable/internal/resource"
)

func main() {
	out := flag.String("out", "perfwal", "performance store directory to fold the sweep into")
	figure := flag.String("figure", "all", "which profile to build: 5, 6a, 6b, or all")
	refine := flag.Float64("refine", 0, "sensitivity threshold for refinement sampling (0 disables)")
	flag.Parse()

	var dbs []*perfdb.DB
	add := func(name string, f func() (*perfdb.DB, error)) {
		fmt.Printf("profiling %s configurations in the virtual testbed...\n", name)
		db, err := f()
		if err != nil {
			log.Fatalf("avis-profile: %s: %v", name, err)
		}
		fmt.Printf("  %d records across %d configurations\n", db.Len(), len(db.Configs()))
		dbs = append(dbs, db)
	}
	switch *figure {
	case "5":
		add("figure-5 (fovea sizes)", expt.Fig5DB)
	case "6a":
		add("figure-6a (codecs)", expt.Fig6aDB)
	case "6b":
		add("figure-6b (resolutions)", expt.Fig6bDB)
	case "all":
		add("figure-5 (fovea sizes)", expt.Fig5DB)
		add("figure-6a (codecs)", expt.Fig6aDB)
		add("figure-6b (resolutions)", expt.Fig6bDB)
	default:
		log.Fatalf("avis-profile: unknown figure %q", *figure)
	}
	// Merge into one database for storage.
	merged := dbs[0]
	for _, db := range dbs[1:] {
		for _, cfg := range db.Configs() {
			for _, rec := range db.Records(cfg) {
				if err := merged.Add(cfg, rec.Resources, rec.Metrics); err != nil {
					log.Fatalf("avis-profile: merge: %v", err)
				}
			}
		}
	}
	if *refine > 0 {
		// Sensitivity-guided refinement: add samples where metrics change
		// steeply between adjacent grid points (the paper's sensitivity
		// analysis tool, Section 5).
		grid := resource.NewGrid() // the driver reuses the lattice inferred per config
		d, err := profiler.New(merged, grid, expt.AvisRunFunc(500e3))
		if err != nil {
			log.Fatalf("avis-profile: refine: %v", err)
		}
		added, err := d.Refine(*refine, 3, 32)
		if err != nil {
			log.Fatalf("avis-profile: refine: %v", err)
		}
		fmt.Printf("sensitivity refinement added %d samples (threshold %.2f)\n", added, *refine)
	}
	store, err := perfstore.OpenWAL(*out, perfstore.WALOptions{})
	if err != nil {
		log.Fatalf("avis-profile: %v", err)
	}
	stats, err := perfstore.MergeSweep(store, merged)
	if err != nil {
		log.Fatalf("avis-profile: %v", err)
	}
	if err := store.Close(); err != nil {
		log.Fatalf("avis-profile: %v", err)
	}
	fmt.Printf("folded %d records into %s: %d configurations, %d records refined, %d added\n",
		merged.Len(), *out, stats.Configs, stats.Merged, stats.Added)
	fmt.Fprintf(os.Stderr, "avis-profile: %v; %v\n", expt.EncodedStats(), avis.ClientDecodeStats())
}
