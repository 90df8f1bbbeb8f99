#!/usr/bin/env sh
# bench_control.sh — refresh the control-plane baseline, BENCH_control.json.
# Two parts land in one file:
#
#   - the micro-benchmarks from internal/cluster: the delta-batch
#     heartbeat path (ns/op per logical heartbeat) and the placement
#     decision at 10k nodes;
#   - a "swarm" block from an avis-load run — 100k virtual-time client
#     sessions against 10k nodes — recording end-to-end registry ops/sec
#     and placement latency percentiles.
#
# scripts/bench_check.sh gates only the Benchmark* entries (its extractor
# ignores the swarm block); the swarm numbers are recorded for humans.
# Run on a quiet machine. AVIS_LOAD_FLAGS overrides the swarm shape.
set -eu

cd "$(dirname "$0")/.."

BENCH_OUT=BENCH_control.json \
	BENCH_FILTER='BenchmarkControl' \
	BENCH_PKG=./internal/cluster \
	./scripts/bench.sh "$@"

SWARM=$(mktemp)
trap 'rm -f "$SWARM"' EXIT INT TERM
# shellcheck disable=SC2086 — flag splitting is the point
go run ./cmd/avis-load ${AVIS_LOAD_FLAGS:-} -out "$SWARM"

# Splice the swarm summary in as a trailing "swarm" key.
awk -v swarm="$SWARM" '
	/^}$/ {
		printf ",\n  \"swarm\": "
		first = 1
		while ((getline line < swarm) > 0) {
			if (!first) printf "\n  "
			printf "%s", line
			first = 0
		}
		print ""
	}
	{ print }
' BENCH_control.json >BENCH_control.json.tmp && mv BENCH_control.json.tmp BENCH_control.json
echo "wrote BENCH_control.json (with swarm summary)"
