// Package perfstore turns the static, testbed-profiled performance
// database (internal/perfdb, the paper's Section 5.2 artifact) into a
// live, shared, persistent model. The paper populates its database
// offline, by sweeping configurations through the testbed; this package
// closes the loop on production telemetry in the spirit of SmartConf-style
// controllers: monitors and servers emit Sample records (configuration,
// observed resource vector, achieved metrics), an ingest pipeline batches
// and outlier-filters them against the profiled prior, and accepted
// samples are folded into per-configuration profiles by exponentially
// weighted online refinement — live behaviour sharpens the testbed prior
// without letting transients poison it.
//
// The subsystem is layered exactly as the repo's cache/store split idiom:
//
//	ingest  →  refine  →  Store (pluggable persistence)  →  read-through cache
//
// The last two stages are the storage:
//
//   - Store is the pluggable persistence seam: MemStore keeps refined
//     profiles in memory; WALStore appends every refinement to segmented
//     write-ahead logs with CRC framing, compacts them into versioned,
//     byte-stable snapshots, and replays snapshot+segments on reopen, so a
//     coordinator restart recovers the refined model.
//   - The profile cache (internal/lru under the hood) serves scheduler
//     Predict lookups from warm, materialized models; misses load
//     single-flight from the Store and merge the refined overlay onto the
//     profiled prior. At fleet scale every agent queries one shared model
//     hosted by the coordinator instead of re-deriving its own.
//
// PerfStore implements perfdb.Model, so the resource scheduler and the
// core framework run unchanged over either the offline database or the
// live store.
package perfstore
