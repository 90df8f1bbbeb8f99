#!/usr/bin/env sh
# bench_wire.sh — run the wire-protocol micro-benchmarks (frame
# write/read, and the schema codec on a small node report and the
# resolve message) and record BENCH_wire.json at the repo root. A thin
# retargeting of scripts/bench.sh; extra go-test flags pass through.
set -eu

cd "$(dirname "$0")/.."

BENCH_FILTER='BenchmarkWire' \
BENCH_PKG=./internal/wire \
BENCH_OUT="${BENCH_OUT:-BENCH_wire.json}" \
	./scripts/bench.sh "$@"
