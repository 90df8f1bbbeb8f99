// Package perfstore turns the static, testbed-profiled performance
// database (internal/perfdb, the paper's Section 5.2 artifact) into a
// live, shared, persistent model. The paper populates its database
// offline, by sweeping configurations through the testbed; this package
// closes the loop on production telemetry in the spirit of SmartConf-style
// controllers: monitors and servers emit Sample records (configuration,
// observed resource vector, achieved metrics), an ingest pipeline batches
// and outlier-filters them against the model, and accepted samples are
// folded into per-configuration profiles by exponentially weighted online
// refinement — live behaviour sharpens the testbed prior without letting
// transients poison it.
//
// The subsystem is one pipeline over one store:
//
//	ingest  →  refine  →  Store  →  compiled lattices
//
// The last two stages serve reads:
//
//   - Store holds every refined profile in memory. One opened on a
//     directory (OpenWAL) also appends each Save to segmented write-ahead
//     logs with CRC framing, compacts them into versioned, byte-stable
//     snapshots, and replays snapshot+segments on reopen, so a restart
//     recovers the refined model. It is the only on-disk form of the
//     performance model: avis-profile folds its testbed sweep into one
//     (MergeSweep).
//   - PerfStore keeps the compiled lattice (prior ∪ overlay) of each
//     configuration it has read; a fold recompiles and republishes it.
//     The overlay's records carry the same resource.Vector and
//     spec.Metrics as perfdb's, so the merge is one pass over the prior
//     lattice's records and the overlay's, both in resource-key order
//     (the overlay's wins on an equal key), handed to perfdb.Compile —
//     the same compile the offline database runs.
//
// PerfStore implements perfdb.Model, so the resource scheduler and the
// core framework run unchanged over either the offline database or the
// live store.
package perfstore
