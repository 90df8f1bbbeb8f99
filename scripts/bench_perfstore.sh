#!/usr/bin/env sh
# bench_perfstore.sh — run the live performance-store micro-benchmarks
# (warm Predict from a configuration's compiled lattice, the "Cached"
# row, vs a cold read that loads and compiles it, the "Uncached" row; the
# perfdb lookup under them; sustained sample ingest) and record
# BENCH_perfstore.json at the repo root. A thin retargeting of
# scripts/bench.sh; extra go-test flags pass through.
set -eu

cd "$(dirname "$0")/.."

BENCH_FILTER='BenchmarkPerfstore|BenchmarkPerfdb' \
BENCH_PKG=./internal/perfstore \
BENCH_OUT="${BENCH_OUT:-BENCH_perfstore.json}" \
	./scripts/bench.sh "$@"
