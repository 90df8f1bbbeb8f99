package main

// The one table every name comes from: BENCHMARK.json is checked against it
// (metrics_test.go), -list prints it, and the workloads may only emit names
// it holds.

// metricDef declares one metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
	// Exact marks a virtual-time behaviour number: for a given seed it
	// repeats to the last bit, so any difference is a behaviour change.
	Exact bool `json:"exact,omitempty"`
	// Moves says, for a layer metric, which end-to-end metric it should
	// move on which workload.
	Moves string `json:"moves,omitempty"`
	// Means says, for an end-to-end metric, what it measures per workload.
	Means string `json:"means,omitempty"`
}

// End-to-end metrics. Every workload reports every one of them: "op" is the
// workload's unit operation and "unit" the thing a user waits for. The
// wall-clock bounds are what the shared 2-core box supports: in a quiet
// quarter of an hour ten runs spread by 1-5%, but the box has slow phases of
// minutes that shift whole runs by 10-30% (control-resolve, whose op is 30 us
// of wake-ups, feels them most). Allocation counts do not care.
//
//	workload         op                         unit
//	direct-small     round (FetchRound)         image (64 rounds)
//	direct-bulk      round (FetchRound)         image (5 rounds)
//	edge-revisit     round (FetchRoundRaw)      fixation (its 4 coarse rounds)
//	adapt-cycle      experiment call            cycle (Exp1, Exp2, Exp3, drift)
//	mix-contention   RunMix                     clean + chaos pair of one seed
//	control-resolve  Resolver.Resolve           Resolve + EndSession
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Means: "wall time from workload start to fixtures ready (pyramid fill, profile DBs, node registration, listeners, connects); median of the set-ups made in one run"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Means: "median op latency: request written to chunk applied / payload returned / grant received / experiment or RunMix call returned"},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Means: "95th percentile of the same samples"},
	{Name: "unit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Means: "median time of one unit: all rounds of an image or fixation, a whole adaptation cycle, a clean+chaos RunMix pair, a resolve+end pair"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Means: "completed ops of all clients per wall second; median over the passes of one run"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05,
		Means: "process-wide heap allocations per op (client + edge + origin + coordinator); median over passes"},
}

// Per-layer metrics, from the traced run. A metric of a layer the workload
// does not visit reads 0.
var perLayer = []metricDef{
	// wavelet
	{Name: "wavelet.decompose_ms", Unit: "ms", Better: "lower", Moves: "setup_s on direct-*"},
	{Name: "wavelet.extract_us", Unit: "us", Better: "lower", Moves: "op_p50_ms, ops_per_s on direct-small; little on direct-bulk"},
	{Name: "wavelet.chunk_encode_us", Unit: "us", Better: "lower", Moves: "op_p50_ms, ops_per_s on direct-small"},
	{Name: "wavelet.chunk_decode_us", Unit: "us", Better: "lower", Moves: "op_p50_ms on direct-bulk"},
	{Name: "wavelet.canvas_apply_us", Unit: "us", Better: "lower", Moves: "op_p50_ms on direct-bulk"},
	{Name: "wavelet.chunk_bytes", Unit: "count", Better: "lower", Moves: "context: median pre-compression chunk size"},
	// compress
	{Name: "compress.lzw.encode_mb_s", Unit: "MB/s", Better: "higher", Moves: "op_p50_ms on edge-revisit (re-encode on every hit) and direct-small"},
	{Name: "compress.lzw.decode_mb_s", Unit: "MB/s", Better: "higher", Moves: "op_p50_ms on direct-small, edge-revisit misses"},
	{Name: "compress.bzw.encode_mb_s", Unit: "MB/s", Better: "higher", Moves: "op_p50_ms, unit_p50_ms on direct-bulk; none on direct-small, edge-revisit"},
	{Name: "compress.bzw.decode_mb_s", Unit: "MB/s", Better: "higher", Moves: "op_p50_ms, unit_p50_ms on direct-bulk"},
	{Name: "compress.lzw.ratio", Unit: "ratio", Better: "higher", Moves: "context: raw bytes / compressed bytes"},
	{Name: "compress.bzw.ratio", Unit: "ratio", Better: "higher", Moves: "context: raw bytes / compressed bytes"},
	// wire
	{Name: "wire.write_frame_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms, allocs_per_op on direct-small, edge-revisit, control-resolve; none on direct-bulk"},
	{Name: "wire.read_frame_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms, allocs_per_op on direct-small, edge-revisit, control-resolve"},
	{Name: "wire.frames_per_round", Unit: "count", Better: "lower", Moves: "op_p50_ms on direct-small"},
	{Name: "wire.allocs_per_frame", Unit: "count", Better: "lower", Moves: "allocs_per_op on direct-small, edge-revisit, control-resolve"},
	{Name: "wire.negotiate_us", Unit: "us", Better: "lower", Moves: "setup_s on the TCP workloads"},
	// avis
	{Name: "avis.request_codec_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms, allocs_per_op on direct-small"},
	{Name: "avis.segment_codec_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms, allocs_per_op on direct-small"},
	{Name: "avis.store_lookup_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms on direct-small"},
	{Name: "avis.plan_rounds_ns", Unit: "ns", Better: "lower", Moves: "unit_p50_ms on direct-small"},
	{Name: "avis.connect_us", Unit: "us", Better: "lower", Moves: "setup_s on the session workloads"},
	{Name: "avis.round_self_us", Unit: "us", Better: "lower", Moves: "op_p50_ms, allocs_per_op on direct-small (round minus its shadow children)"},
	{Name: "avis.round_p99_ms", Unit: "ms", Better: "lower", Moves: "context: tail beyond op_p95_ms"},
	{Name: "avis.raw_mb_s", Unit: "MB/s", Better: "higher", Moves: "follows ops_per_s on the session workloads: pre-compression chunk bytes delivered"},
	{Name: "avis.sim_image_wall_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on adapt-cycle"},
	// edge
	{Name: "edge.hit_round_us", Unit: "us", Better: "lower", Moves: "op_p50_ms, ops_per_s on edge-revisit"},
	{Name: "edge.miss_round_us", Unit: "us", Better: "lower", Moves: "op_p95_ms, unit_p50_ms on edge-revisit"},
	{Name: "edge.pass_round_us", Unit: "us", Better: "lower", Moves: "op_p95_ms, unit_p50_ms on edge-revisit"},
	{Name: "edge.hit_ratio", Unit: "ratio", Better: "higher", Moves: "every end-to-end metric on edge-revisit; nothing on direct-*"},
	{Name: "edge.evictions", Unit: "count", Better: "lower", Moves: "edge.hit_ratio"},
	{Name: "edge.origin_share", Unit: "ratio", Better: "lower", Moves: "ops_per_s on edge-revisit (origin requests per client round)"},
	{Name: "edge.cache_bytes", Unit: "count", Better: "lower", Moves: "context: cache occupancy"},
	// lru, bufpool
	{Name: "lru.get_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms on edge-revisit"},
	{Name: "lru.put_ns", Unit: "ns", Better: "lower", Moves: "op_p95_ms on edge-revisit"},
	{Name: "bufpool.get_put_ns", Unit: "ns", Better: "lower", Moves: "allocs_per_op on the session workloads"},
	// cluster
	{Name: "cluster.resolve_inproc_us", Unit: "us", Better: "lower", Moves: "op_p50_ms, ops_per_s on control-resolve"},
	{Name: "cluster.rpc_overhead_us", Unit: "us", Better: "lower", Moves: "op_p50_ms, ops_per_s on control-resolve (TCP pair p50 minus in-process pair)"},
	{Name: "cluster.apply_deltas_ns_per_entry", Unit: "ns", Better: "lower", Moves: "op_p95_ms on control-resolve (contends for shard locks)"},
	{Name: "cluster.encode_delta_ns_per_entry", Unit: "ns", Better: "lower", Moves: "op_p95_ms on control-resolve"},
	{Name: "cluster.register_us", Unit: "us", Better: "lower", Moves: "setup_s on control-resolve"},
	{Name: "cluster.tick_us", Unit: "us", Better: "lower", Moves: "op_p95_ms on control-resolve"},
	{Name: "cluster.allocs_per_resolve", Unit: "count", Better: "lower", Moves: "allocs_per_op on control-resolve"},
	{Name: "cluster.heartbeats", Unit: "count", Better: "higher", Moves: "context: agent heartbeats accepted beside the resolves"},
	{Name: "cluster.resolve_p99_us", Unit: "us", Better: "lower", Moves: "context: tail beyond op_p95_ms"},
	// perfdb
	{Name: "perfdb.predict_us", Unit: "us", Better: "lower", Moves: "ops_per_s, allocs_per_op on mix-contention"},
	{Name: "perfdb.records", Unit: "count", Better: "lower", Moves: "perfdb.predict_us"},
	{Name: "perfdb.build_fig5_s", Unit: "s", Better: "lower", Moves: "setup_s on adapt-cycle"},
	{Name: "perfdb.build_fig6a_s", Unit: "s", Better: "lower", Moves: "setup_s on adapt-cycle"},
	{Name: "perfdb.build_fig6b_s", Unit: "s", Better: "lower", Moves: "setup_s on adapt-cycle"},
	// perfstore
	{Name: "perfstore.predict_warm_us", Unit: "us", Better: "lower", Moves: "ops_per_s, allocs_per_op on adapt-cycle (drift run)"},
	{Name: "perfstore.predict_cold_us", Unit: "us", Better: "lower", Moves: "ops_per_s on adapt-cycle (drift run)"},
	{Name: "perfstore.allocs_per_predict_warm", Unit: "count", Better: "lower", Moves: "allocs_per_op on adapt-cycle"},
	{Name: "perfstore.ingest_us", Unit: "us", Better: "lower", Moves: "ops_per_s on adapt-cycle (Offer+Flush per sample)"},
	{Name: "perfstore.wal_save_us", Unit: "us", Better: "lower", Moves: "context: WALStore.Save in a temp dir"},
	{Name: "perfstore.cache_evictions", Unit: "count", Better: "lower", Moves: "perfstore.predict_cold_us share"},
	// scheduler
	{Name: "scheduler.select_us", Unit: "us", Better: "lower", Moves: "ops_per_s, allocs_per_op on mix-contention; small on adapt-cycle"},
	{Name: "scheduler.select_derated_us", Unit: "us", Better: "lower", Moves: "ops_per_s on mix-contention"},
	{Name: "scheduler.candidates", Unit: "count", Better: "lower", Moves: "scheduler.select_us"},
	{Name: "scheduler.arbiter_acquire_release_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s on mix-contention"},
	{Name: "scheduler.admission_reserve_release_us", Unit: "us", Better: "lower", Moves: "ops_per_s on mix-contention"},
	// monitor, steering, core
	{Name: "monitor.run_once_us", Unit: "us", Better: "lower", Moves: "ops_per_s on adapt-cycle (10 ms virtual period)"},
	{Name: "monitor.samples", Unit: "count", Better: "lower", Moves: "monitor.run_once_us (probe samples taken by the timed rounds)"},
	{Name: "monitor.detect_vs", Unit: "vs", Better: "lower", Exact: true, Moves: "core.react_vs, core.qos_pass_ratio on adapt-cycle (drift dip to first changing decision)"},
	{Name: "steering.apply_vs", Unit: "vs", Better: "lower", Exact: true, Moves: "core.react_vs on adapt-cycle (decision to switch)"},
	{Name: "steering.switches", Unit: "count", Better: "lower", Exact: true, Moves: "behaviour: must stay exact"},
	{Name: "steering.rejects", Unit: "count", Better: "lower", Exact: true, Moves: "behaviour: must stay exact"},
	{Name: "core.events.trigger", Unit: "count", Better: "lower", Exact: true, Moves: "behaviour, per cycle"},
	{Name: "core.events.decision", Unit: "count", Better: "lower", Exact: true, Moves: "behaviour, per cycle"},
	{Name: "core.events.steady", Unit: "count", Better: "lower", Exact: true, Moves: "behaviour, per cycle"},
	{Name: "core.events.no_feasible", Unit: "count", Better: "lower", Exact: true, Moves: "behaviour, per cycle"},
	{Name: "core.react_vs", Unit: "vs", Better: "lower", Exact: true, Moves: "what the application owner feels: trigger to switch, virtual seconds, mean over changing decisions"},
	{Name: "core.adapt_gain", Unit: "ratio", Better: "higher", Exact: true, Moves: "Experiment 1: best static total / adaptive total"},
	{Name: "core.qos_pass_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "post-perturbation images meeting the preference bound (Exp2, drift)"},
	// vtime, sandbox
	{Name: "vtime.events_per_s", Unit: "1/s", Better: "higher", Moves: "ops_per_s on adapt-cycle, mix-contention; nothing on the TCP workloads"},
	{Name: "vtime.chan_roundtrip_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s on adapt-cycle, mix-contention"},
	{Name: "vtime.vsec_per_s", Unit: "ratio", Better: "higher", Moves: "follows ops_per_s on adapt-cycle, mix-contention: virtual seconds per wall second"},
	{Name: "sandbox.compute_call_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s on adapt-cycle, mix-contention"},
	// apps
	{Name: "apps.runmix_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms, ops_per_s on mix-contention"},
	{Name: "apps.runmix_p95_ms", Unit: "ms", Better: "lower", Moves: "op_p95_ms on mix-contention"},
	{Name: "apps.video_session_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on mix-contention"},
	{Name: "apps.foveal_session_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on mix-contention"},
	{Name: "apps.allocs_per_session", Unit: "count", Better: "lower", Moves: "allocs_per_op on mix-contention"},
	{Name: "apps.switches_per_run", Unit: "count", Better: "lower", Exact: true, Moves: "behaviour: must stay exact"},
	{Name: "apps.derated_plans_per_run", Unit: "count", Better: "lower", Exact: true, Moves: "behaviour: must stay exact"},
	{Name: "apps.qos_pass_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "sessions passed / requested over classes and runs"},
	// runtime, trace
	{Name: "runtime.bytes_per_op", Unit: "B", Better: "lower", Moves: "context for allocs_per_op"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "context for op_p95_ms: total GC pause in the traced pass"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower", Moves: "context: peak heap in use"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "how far to trust the spans: traced / untraced wall per op"},
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*runCtx) (*result, error)
}

var workloads = []workloadDef{
	{Name: "direct-small", run: runDirectSmall,
		Why: "client->origin over TCP, 64 small lzw rounds per image: per-round fixed cost (request codec, frames, syscalls) dominates, codec time is small"},
	{Name: "direct-bulk", run: runDirectBulk,
		Why: "same path, 5 large bzw rounds per image: codec and chunk decode dominate, per-frame overhead is negligible"},
	{Name: "edge-revisit", run: runEdgeRevisit,
		Why: "client->edge->origin with a Zipf fixation trace over a working set larger than the cache: hits re-encode, misses and fine rounds cross two hops"},
	{Name: "adapt-cycle", run: runAdaptCycle,
		Why: "virtual time: experiments 1-3 and the online drift run, monitor trigger -> scheduler -> steering on the simulated session"},
	{Name: "mix-contention", run: runMixContention,
		Why: "virtual time: 16 video + 8 foveal sessions under admission and the arbiter with periodic retune, every other run under chaos"},
	{Name: "control-resolve", run: runControlResolve,
		Why: "coordinator over TCP, 2000 nodes, 8 heartbeating agents, 2 resolvers: tiny control messages, so framing and placement dominate"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
