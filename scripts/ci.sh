#!/usr/bin/env sh
# ci.sh — the CI gate, runnable whole or in stages. With no stage it runs
# everything in order (the full local gate); with a stage name it runs
# just that slice, which is how the staged GitHub workflow splits the
# pipeline across jobs:
#
#   scripts/ci.sh            # full gate (lint, unit, smoke, bench)
#   scripts/ci.sh lint       # build + vet + staticcheck
#   scripts/ci.sh unit       # race-detector test suite (quick gate first)
#   scripts/ci.sh smoke      # chaos, conformance, swarm, mix, figure-golden and fuzz smokes
#   scripts/ci.sh fuzz       # just the fuzz smoke (FUZZTIME=5m for the nightly pass)
#   scripts/ci.sh bench      # bench smoke + perf gate vs baselines
#   scripts/ci.sh -short     # full gate, skipping slow real-time tests
#
# Flags after the stage (or in place of it) are forwarded to go test.
set -eu

cd "$(dirname "$0")/.."

STAGE=all
case "${1:-}" in
lint | unit | smoke | fuzz | bench | all)
	STAGE=$1
	shift
	;;
esac

run_lint() {
	echo "== go build ./..."
	go build ./...

	echo "== make lint (vet + staticcheck when installed)"
	make lint
}

run_unit() {
	# Fast fail on the cluster control plane, the edge cache tier, the
	# live performance store, and the workload layer: the failover e2e
	# test, the avis drain/concurrency tests, the edge-tier smoke, the
	# perfstore's concurrent ingest/predict/eviction tests, and the
	# mixed-workload determinism e2e are the most concurrency-heavy spots
	# in the repo, so run them under -race before committing to the long
	# full-suite run below.
	echo "== go test -race ./internal/cluster ./internal/avis ./internal/edge ./internal/perfstore ./internal/apps (quick gate)"
	go test -race -timeout 10m ./internal/cluster ./internal/avis ./internal/edge ./internal/perfstore ./internal/apps

	# The arbiter and admission tests are schedule-dependent: one green
	# run proves little (the churn test once landed green and failed 16
	# of 20 runs afterwards), so repeat them under the race detector.
	echo "== go test -race -count=20 $* ./internal/scheduler (repeat gate)"
	go test -race -count=20 -timeout 10m "$@" ./internal/scheduler

	# The race detector slows the channel-heavy virtual-time experiments
	# well past the default 10m per-package test timeout, so raise it;
	# wall-clock cost is still dominated by internal/expt (skippable with
	# -short).
	echo "== go test -race -timeout 45m ./... $*"
	go test -race -timeout 45m "$@" ./...
}

run_smoke() {
	# Swarm smoke: a small avis-load run (1k virtual-time sessions, with
	# a mid-run kill and failover re-placement) end-to-ends the sharded
	# registry, delta batching, death detection, and drain accounting in
	# a couple of seconds. The driver exits nonzero on any missed or
	# spurious death or an unfinished session.
	echo "== avis-load smoke (1k virtual sessions)"
	go run ./cmd/avis-load -nodes 200 -sessions 1000 -ramp 10s -hold 15s -step 100ms -kill 0.1

	# Wire conformance: the three binaries as real processes — a direct
	# session and a coordinator-placed one must both complete (handshake
	# on every connection) and dump byte-identical pixels.
	echo "== scripts/wire_conformance.sh (direct + coordinator-placed)"
	./scripts/wire_conformance.sh

	# Mixed-workload smoke: a seeded video+foveal mix under a replayed
	# chaos schedule, run twice — the per-class QoS reports must be
	# byte-identical (the avis-mix determinism guarantee).
	echo "== avis-mix smoke (seeded mix, chaos replay, byte-identical)"
	MIX_A=$(mktemp) MIX_B=$(mktemp)
	trap 'rm -f "$MIX_A" "$MIX_B"' EXIT INT TERM
	go run ./cmd/avis-mix -seed 42 -video 4 -foveal 2 -chaos -out "$MIX_A"
	go run ./cmd/avis-mix -seed 42 -video 4 -foveal 2 -chaos -out "$MIX_B"
	cmp "$MIX_A" "$MIX_B" || {
		echo "avis-mix: same seed produced different reports" >&2
		exit 1
	}
	rm -f "$MIX_A" "$MIX_B"

	# Figure goldens: every paper figure and every adaptation experiment
	# is a deterministic function of the virtual-time session code, so
	# their printed output must not move by a byte unless a change means
	# it to (then regenerate the fixture in the same commit and say why).
	echo "== avis-figures / avis-adapt -exp all vs scripts/golden (byte-identical)"
	go run ./cmd/avis-figures | cmp - scripts/golden/avis-figures.txt
	go run ./cmd/avis-adapt -exp all | cmp - scripts/golden/avis-adapt-all.txt

	run_fuzz
}

run_fuzz() {
	# Fuzz smoke: plain `go test` only replays each target's seed corpus,
	# so give every internal/compress fuzz target (codec round trips, and
	# the BWT and Huffman-decoder differentials against their oracles)
	# FUZZTIME of real mutation — one target per invocation, as the
	# toolchain requires. Offline: the module has no dependencies. A
	# failing input lands in internal/compress/testdata/fuzz/<target>/.
	for target in $(go test ./internal/compress -list '^Fuzz' | grep '^Fuzz'); do
		echo "== go test ./internal/compress -fuzz '^$target\$' -fuzztime ${FUZZTIME:-10s}"
		go test ./internal/compress -run '^$' -fuzz "^$target\$" -fuzztime "${FUZZTIME:-10s}"
	done
}

run_bench() {
	# Benchmark smoke: one iteration of every benchmark in every package
	# catches harness rot (a bench that no longer compiles or fatals on
	# its first iteration) without paying for real measurement runs. The
	# figure-regeneration benchmarks hide behind -short, which is what
	# lets the timeout sit at minutes instead of the 45m the full figure
	# sweep needs.
	echo "== go test -bench=. -benchtime=1x -short ./... (smoke)"
	go test -run '^$' -bench . -benchtime 1x -short -timeout 10m ./...

	# Perf gate: re-measure the benchmarked hot paths against the six
	# committed baselines. BENCH_CHECK=0 skips it; BENCH_TOLERANCE
	# loosens it on noisy shared runners (CI uses 0.60, local default
	# 0.20).
	if [ "${BENCH_CHECK:-1}" = "1" ]; then
		echo "== scripts/bench_check.sh (tolerance ${BENCH_TOLERANCE:-0.20})"
		./scripts/bench_check.sh
	else
		echo "== bench_check skipped (BENCH_CHECK=0)"
	fi
}

case "$STAGE" in
lint) run_lint ;;
unit) run_unit "$@" ;;
smoke) run_smoke ;;
fuzz) run_fuzz ;;
bench) run_bench ;;
all)
	run_lint
	run_unit "$@"
	run_smoke
	run_bench
	;;
esac

echo "CI gate passed ($STAGE)."
