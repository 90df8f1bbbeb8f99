#!/usr/bin/env sh
# bench_check.sh — guard the benchmarked hot paths against performance
# regression: re-run each committed benchmark suite and compare ns/op
# against its baseline JSON. Any benchmark more than BENCH_TOLERANCE
# (default 0.20 = 20%) slower than its baseline fails the check with a
# nonzero exit, and so does a name present on only one side — a baseline
# entry nothing measures any more, or a new benchmark with no baseline —
# so a rename or a deletion cannot slip through as "not compared". Six
# suites are gated: the data-plane kernels
# (BENCH_kernels.json — root-package codec and wavelet kernels plus the
# per-stage BZW profile and LZW decode rows of internal/compress), the edge cache tier (BENCH_edge.json), the
# control plane (BENCH_control.json — heartbeat dispatch, placement, and
# the counter-commit harness; its trailing "swarm" block is informational
# and ignored here), the live performance store (BENCH_perfstore.json —
# cached vs uncached profile lookup, the perfdb lookup under them and
# sample ingest), the wire protocol (BENCH_wire.json — frame write/read
# and the schema codec on control bodies), and the workload layer
# (BENCH_apps.json — the mixed video+foveal harness, arbiter acquire/release, a single
# video session, and one scheduler decision plain and derated; only ns/op
# is gated, the sessions/sec and p95-QoS fields are informational).
#
#   scripts/bench_check.sh                        # compare at +20%
#   BENCH_TOLERANCE=0.60 scripts/bench_check.sh   # looser, for noisy CI
#   BENCHTIME=2s scripts/bench_check.sh           # steadier measurement
#
# Refresh a baseline after an intentional perf change (or after adding,
# renaming or deleting a benchmark) with the suite's own script —
# scripts/bench.sh, bench_edge.sh, bench_control.sh, bench_perfstore.sh,
# bench_wire.sh, bench_apps.sh — on a quiet machine.
set -eu

cd "$(dirname "$0")/.."

TOL="${BENCH_TOLERANCE:-0.20}"

# Pull "name ns_op" pairs out of the one-entry-per-line JSON bench.sh
# writes.
extract() {
	sed -n 's/^ *"\(Benchmark[^"]*\)": {"ns_op": \([0-9.e+]*\).*/\1 \2/p' "$1" | sort
}

# check_one BASELINE FILTER PKG — re-measure one suite and diff it
# against its committed baseline.
check_one() {
	baseline=$1 filter=$2 pkg=$3
	if [ ! -f "$baseline" ]; then
		echo "bench_check: no $baseline baseline; run the matching bench script first" >&2
		exit 2
	fi
	echo "== $baseline ($pkg)"

	CUR=$(mktemp)
	trap 'rm -f "$CUR" "$CUR.base" "$CUR.now"' EXIT INT TERM
	BENCH_OUT="$CUR" BENCH_FILTER="$filter" BENCH_PKG="$pkg" \
		BENCHTIME="${BENCHTIME:-1s}" ./scripts/bench.sh >/dev/null 2>&1

	extract "$baseline" >"$CUR.base"
	extract "$CUR" >"$CUR.now"

	# Full outer join: a name on one side only shows "-" on the other.
	join -a 1 -a 2 -e - -o 0,1.2,2.2 "$CUR.base" "$CUR.now" | awk -v tol="$TOL" '
	$2 == "-" { printf "%-50s measured but has no baseline entry   UNMATCHED\n", $1; lone++; next }
	$3 == "-" { printf "%-50s in the baseline but not measured    UNMATCHED\n", $1; lone++; next }
	{
		name = $1; base = $2; now = $3
		limit = base * (1 + tol)
		bad += (now > limit)
		printf "%-50s base %10.1f ns/op   now %10.1f ns/op   limit %10.1f   %s\n", \
			name, base, now, limit, (now > limit ? "REGRESSION" : "ok")
	}
	END {
		if (NR == 0) { print "bench_check: no comparable benchmarks found"; exit 2 }
		if (lone > 0) { printf "bench_check: %d benchmark name(s) on one side only; refresh the baseline with its script\n", lone }
		if (bad > 0) { printf "bench_check: %d benchmark(s) regressed beyond +%.0f%%\n", bad, tol * 100 }
		if (lone > 0 || bad > 0) exit 1
		printf "bench_check: %d benchmark(s) within +%.0f%% of baseline\n", NR, tol * 100
	}'
	rm -f "$CUR" "$CUR.base" "$CUR.now"
}

check_one BENCH_kernels.json \
	'BenchmarkLZWEncode|BenchmarkLZWDecode|BenchmarkBZWEncode|BenchmarkBZWDecode|BenchmarkChunkExtract|BenchmarkHaarDecompose|BenchmarkBZWStages|BenchmarkLZWStages' \
	'. ./internal/compress'
check_one BENCH_edge.json 'BenchmarkEdge' ./internal/edge
check_one BENCH_control.json 'BenchmarkControl|BenchmarkCounter' ./internal/cluster
check_one BENCH_perfstore.json 'BenchmarkPerfstore|BenchmarkPerfdb' ./internal/perfstore
check_one BENCH_wire.json 'BenchmarkWire' ./internal/wire
check_one BENCH_apps.json 'BenchmarkApps|BenchmarkScheduler' ./internal/apps
