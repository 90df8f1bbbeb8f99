#!/usr/bin/env sh
# bench_apps.sh — run the workload-layer benchmarks (the mixed
# video+foveal harness end to end with sessions/sec and per-class p95
# QoS, the cross-class arbiter acquire/release hot path, a single
# video session, and one scheduler decision plain and derated) and record BENCH_apps.json at the repo root. A thin
# retargeting of scripts/bench.sh; extra go-test flags pass through.
set -eu

cd "$(dirname "$0")/.."

BENCH_FILTER='BenchmarkApps|BenchmarkScheduler' \
BENCH_PKG=./internal/apps \
BENCH_OUT="${BENCH_OUT:-BENCH_apps.json}" \
	./scripts/bench.sh "$@"
