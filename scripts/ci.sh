#!/usr/bin/env sh
# ci.sh — the CI gate, runnable whole or in stages. With no stage it runs
# everything in order (the full local gate); with a stage name it runs
# just that slice, which is how the staged GitHub workflow splits the
# pipeline across jobs:
#
#   scripts/ci.sh            # full gate (lint, unit, smoke, bench)
#   scripts/ci.sh lint       # build + vet + gofmt + staticcheck + surface ratchet
#   scripts/ci.sh unit       # race-detector test suite (quick gate first)
#   scripts/ci.sh smoke      # chaos, conformance, swarm, mix, figure-golden and fuzz smokes
#   scripts/ci.sh fuzz       # just the fuzz smoke (FUZZTIME=5m for the nightly pass)
#   scripts/ci.sh bench      # bench smoke + perf gate vs baselines
#   scripts/ci.sh reach      # run-time reach ratchet (scripts/reach.txt)
#   scripts/ci.sh -short     # full gate, skipping slow real-time tests
#
# Flags after the stage (or in place of it) are forwarded to go test.
set -eu

cd "$(dirname "$0")/.."

STAGE=all
case "${1:-}" in
lint | unit | smoke | fuzz | bench | reach | all)
	STAGE=$1
	shift
	;;
esac

run_lint() {
	echo "== go build ./..."
	go build ./...

	echo "== make lint (vet + gofmt + staticcheck when installed)"
	make lint

	# Surface ratchet: exported names no other package uses, names and
	# methods only tests reach, and settable knobs may fall but never
	# rise, and every test-only name is kept for a stated reason.
	echo "== surface ratchet (scripts/surface.txt)"
	go run ./scripts/internal/surface -check scripts/surface.txt
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
	# The virtual-time kernel's correctness rests on coroutine switches
	# between process workers pooled across simulations and goroutines, so
	# the kernel and its closest users repeat here too; under -race they
	# take about 1-2 s each per count. The monitor's armed region calls
	# the scheduler's Select from the agent's process, and core arms it
	# from the control and steering processes, so both repeat as well.
	echo "== go test -race -count=20 $* ./internal/scheduler ./internal/vtime ./internal/netem ./internal/sandbox ./internal/faults ./internal/monitor ./internal/core (repeat gate)"
	go test -race -count=20 -timeout 10m "$@" ./internal/scheduler ./internal/vtime ./internal/netem ./internal/sandbox ./internal/faults ./internal/monitor ./internal/core

	# The mix's retuner skips a session's plan when its inputs have not
	# moved; the skip and the re-selection after a moved estimate repeat
	# with the scheduler's pooled decision state they lean on. The pinned
	# mixes run on four goroutines at once (GOMAXPROCS 1, default, 8) must
	# still hash to their pins with the kernel's worker pool shared between
	# them (about 17 s per count under -race).
	echo "== go test -race -count=20 $* -run '^(TestReplan|TestMixReportsPinnedConcurrently)' ./internal/apps (repeat gate)"
	go test -race -count=20 -timeout 20m "$@" -run '^(TestReplan|TestMixReportsPinnedConcurrently)' ./internal/apps

	# The testbed hands the image store's reply entries to clients by
	# reference, and the three concurrent worlds of an experiment share
	# those entries and the decode memo's identity index, so the memo and
	# lossy-link tests repeat too (about 5 s per count under -race).
	echo "== go test -race -count=20 $* -run <by-reference, memo, lossy> ./internal/avis (repeat gate)"
	go test -race -count=20 -timeout 10m "$@" \
		-run '^(TestDecodeMemo|TestUnverifiedWorldDecodesOncePerReply|TestMemoHitHandsOutNoBuffer|TestLossyLinkRecovery|TestSessionDifferential)' \
		./internal/avis

	# Every bounded cache is an lru.Cache whose misses are single-flight:
	# its own tests and the edge's, whose origin rounds count how often a
	# miss was built, repeat under the race detector (well under a second
	# per count).
	echo "== go test -race -count=20 $* ./internal/lru + -run <edge single-flight> ./internal/edge (repeat gate)"
	go test -race -count=20 -timeout 10m "$@" ./internal/lru
	go test -race -count=20 -timeout 10m "$@" -run '^(TestEdgeSingleFlight|TestEdgeMissAfterFillReusesIt)$' ./internal/edge

	# Heartbeats from agents over TCP and from in-process batches meet in
	# Coordinator.ApplyDeltas, under the node shards' locks; the apply,
	# dispatch, rejoin and retired-tag tests repeat under the race
	# detector (a few seconds in all).
	echo "== go test -race -count=20 $* -run <heartbeat> ./internal/cluster (repeat gate)"
	go test -race -count=20 -timeout 10m "$@" \
		-run '^(TestApplyDeltas|TestDeltaFrameDispatch|TestAgentRejoinsWhenForgotten|TestCoordinatorRefusesRetiredTags)$' \
		./internal/cluster

	# The race detector slows the channel-heavy virtual-time experiments
	# well past the default 10m per-package test timeout, so raise it;
	# wall-clock cost is still dominated by internal/expt (skippable with
	# -short).
	echo "== go test -race -timeout 45m ./... $*"
	go test -race -timeout 45m "$@" ./...
}

# golden <fixture> <output>: fails unless the output equals the fixture
# byte for byte, and prints a unified diff first, so a moved golden can be
# read in the log.
golden() {
	cmp -s "$2" "$1" && return 0
	echo "$2 differs from $1:" >&2
	diff -u "$1" "$2" >&2 || true
	return 1
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
	# chaos schedule, run twice — both per-class QoS reports must match
	# scripts/golden/avis-mix.txt byte for byte (the avis-mix determinism
	# guarantee, and no drift of the mix's virtual-time path).
	echo "== avis-mix smoke (seeded mix, chaos replay, vs scripts/golden)"
	MIX_A=$(mktemp) MIX_B=$(mktemp) OUT=$(mktemp)
	trap 'rm -f "$MIX_A" "$MIX_B" "$OUT"' EXIT INT TERM
	go run ./cmd/avis-mix -seed 42 -video 4 -foveal 2 -chaos -out "$MIX_A"
	go run ./cmd/avis-mix -seed 42 -video 4 -foveal 2 -chaos -out "$MIX_B"
	for mix in "$MIX_A" "$MIX_B"; do
		golden scripts/golden/avis-mix.txt "$mix" || {
			echo "avis-mix: the seed-42 chaos report differs from scripts/golden/avis-mix.txt" >&2
			exit 1
		}
	done

	# Figure goldens: every paper figure and every adaptation experiment
	# is a deterministic function of the virtual-time session code, so
	# their printed output must not move by a byte unless a change means
	# it to (then regenerate the fixture in the same commit and say why).
	# The adaptation runs print their decision logs (-events) too: the
	# joint estimate at each trigger and the model's prediction at each
	# decision, at full precision.
	echo "== avis-figures / avis-adapt -exp all -events / avis-adapt -exp 1d -events vs scripts/golden (byte-identical)"
	go run ./cmd/avis-figures >"$OUT"
	golden scripts/golden/avis-figures.txt "$OUT"
	go run ./cmd/avis-adapt -exp all -events >"$OUT"
	golden scripts/golden/avis-adapt-all.txt "$OUT"
	go run ./cmd/avis-adapt -exp 1d -events >"$OUT"
	golden scripts/golden/avis-adapt-1d.txt "$OUT"
	rm -f "$MIX_A" "$MIX_B" "$OUT"

	run_fuzz
}

run_fuzz() {
	# Fuzz smoke: plain `go test` only replays each target's seed corpus,
	# so give every fuzz target in the module (codec round trips and
	# decoder differentials, chunk, frame, handshake and schema decoders,
	# the performance store's WAL recovery) FUZZTIME of real mutation — one target per
	# invocation, as the toolchain requires. Targets are discovered per
	# package, so a new one runs without an edit here. Offline: the module
	# has no dependencies. A failing input lands in
	# <package>/testdata/fuzz/<target>/.
	for pkg in $(go list ./...); do
		for target in $(go test "$pkg" -list '^Fuzz' | grep '^Fuzz'); do
			echo "== go test $pkg -fuzz '^$target\$' -fuzztime ${FUZZTIME:-10s}"
			go test "$pkg" -run '^$' -fuzz "^$target\$" -fuzztime "${FUZZTIME:-10s}"
		done
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

run_reach() {
	# Run-time reach: build every cmd/ main and the benchmark with
	# coverage counters over internal/, drive them through the shipped
	# workloads under one GOCOVERDIR, and hold the internal/ functions no
	# run entered to scripts/reach.txt: a `never-entered N` limit plus a
	# `keep <name> <reason>` line for each. An unlisted never-entered
	# function, a keep line naming a function that no longer exists, or a
	# count above the limit fails; a kept function that did run is only
	# reported, since some paths (failover, retry) depend on timing.
	R=$(mktemp -d)
	trap 'kill $(cat "$R/pids" 2>/dev/null) 2>/dev/null || true; rm -rf "$R"' EXIT INT TERM
	mkdir -p "$R/bin" "$R/cov" "$R/run"
	echo "== reach: go build -cover (every cmd/ main and bench)"
	t0=$(date +%s)
	for main in $(go list ./cmd/... ./bench | grep -v /internal/); do
		go build -cover -coverpkg="./internal/...,$main" -o "$R/bin/$(basename "$main")" "$main"
	done
	go build -o "$R/bin/portprobe" ./scripts/internal/portprobe
	go build -o "$R/bin/specsrc" ./scripts/internal/specsrc
	t1=$(date +%s)
	echo "   built in $((t1 - t0)) s"

	B=$R/bin
	(
		cd "$R/run"
		export GOCOVERDIR="$R/cov"
		q() { "$@" >>"$R/run.log" 2>&1 || { tail -20 "$R/run.log" >&2; echo "reach: failed: $*" >&2; exit 1; }; }
		for w in direct-small direct-bulk edge-revisit adapt-cycle mix-contention control-resolve; do
			echo "== reach: bench -workload $w"
			q "$B/bench" -workload "$w" -seconds 1 -seed 1 -trace
		done
		echo "== reach: avis-figures, avis-adapt -exp all and 1d, avis-mix -chaos, avis-load, avis-chaos"
		q "$B/avis-figures"
		q "$B/avis-adapt" -exp all
		q "$B/avis-adapt" -exp 1d
		q "$B/avis-mix" -seed 42 -video 4 -foveal 2 -chaos
		q "$B/avis-load" -nodes 200 -sessions 1000 -ramp 10s -hold 15s -step 100ms -kill 0.1
		q "$B/avis-chaos"
		echo "== reach: avis-profile into a store directory, then with -refine into the same one; tunable-spec on both shipped specs"
		q "$B/avis-profile" -figure all -out wal
		q "$B/avis-profile" -figure 6a -refine 0.3 -out wal
		for s in avis video; do
			"$B/specsrc" $s >$s.tsp
			q "$B/tunable-spec" -in $s.tsp
			q "$B/tunable-spec" -in $s.tsp -format
			q "$B/tunable-spec" -in $s.tsp -enumerate
		done

		echo "== reach: loopback deployment (coordinator, origin, edge, four clients)"
		COORD=127.0.0.1:7681 SRV=127.0.0.1:7481 EDGE=127.0.0.1:7482
		MET=127.0.0.1:9481 SRVMET=127.0.0.1:9482 EDGEMET=127.0.0.1:9483
		wait_port() {
			i=0
			until "$B/portprobe" "$1" 2>/dev/null; do
				i=$((i + 1))
				[ $i -lt 100 ] || { echo "reach: nothing listens at $1" >&2; exit 1; }
				sleep 0.1
			done
		}
		"$B/avis-coord" -addr $COORD -metrics-addr $MET >coord.log 2>&1 &
		echo $! >>"$R/pids"
		wait_port $COORD
		"$B/avis-server" -addr $SRV -side 256 -levels 4 -images 2 -coord $COORD -heartbeat 200ms -metrics-addr $SRVMET >server.log 2>&1 &
		echo $! >>"$R/pids"
		wait_port $SRV
		sig=$(sed -n 's/.*store signature \([^)]*\)).*/\1/p' server.log)
		"$B/avis-edge" -addr $EDGE -origin $SRV -sig "$sig" -coord $COORD -heartbeat 200ms -metrics-addr $EDGEMET >edge.log 2>&1 &
		echo $! >>"$R/pids"
		wait_port $EDGE
		sleep 0.5 # let both registrations land
		q "$B/avis-client" -addr $SRV -n 2 -bw 4000000
		q "$B/avis-client" -addr $EDGE -level 3 -n 2 -verify
		q "$B/avis-client" -coord $COORD -n 2
		q "$B/avis-client" -coord $COORD -prefer-edge -codec bzw -level 3 -n 2
		for m in $MET $SRVMET $EDGEMET; do
			q curl -sf "http://$m/metrics"
		done
		q curl -sf "http://$MET/debug/pprof/"
		# SIGINT drains each daemon and returns from main, which is
		# what writes its coverage counters.
		kill -INT $(cat "$R/pids")
		wait
		rm "$R/pids"
	)
	echo "   ran in $(($(date +%s) - t1)) s"

	go tool covdata func -i "$R/cov" | awk -v mod="$(go list -m)/internal/" -v list=scripts/reach.txt '
		BEGIN {
			while ((getline line <list) > 0) {
				n = split(line, f, " ")
				if (f[1] == "keep" && n >= 3) keep[f[2]] = 1
				else if (f[1] == "never-entered") limit = f[2]
			}
		}
		# file:line:  [*Type.]Func  pct — one row per function; init may
		# repeat. Rows for methods of generic types carry no receiver, so
		# it is read off the declaration.
		index($1, mod) == 1 {
			split(substr($1, length(mod) + 1), at, ":")
			n = split(at[1], p, "/")
			fn = $2
			sub(/^\*/, "", fn)
			if (fn !~ /\./) {
				file = "internal/" at[1]
				for (i = 1; i < at[2]; i++) getline decl <file
				getline decl <file
				close(file)
				if (decl ~ /^func \(/) {
					recv = substr(decl, 7, index(decl, ")") - 7)
					sub(/\[.*\]/, "", recv)
					sub(/^.* /, "", recv)
					sub(/^\*/, "", recv)
					fn = recv "." fn
				}
			}
			name = p[n - 1] "." fn
			seen[name] = 1
			if ($NF != "0.0%") ran[name] = 1
		}
		END {
			for (name in seen) if (!(name in ran)) {
				never++
				if (!(name in keep)) bad[++nbad] = "never entered and not kept: " name
			}
			for (name in keep) {
				if (!(name in seen)) bad[++nbad] = "kept but no such function: " name
				else if (name in ran) print "   kept but entered this run: " name
			}
			printf "== reach: %d internal/ functions never entered (limit %d)\n", never, limit
			if (limit == "" || never > limit) bad[++nbad] = "never-entered count " never " is above the limit " limit
			for (i = 1; i <= nbad; i++) print bad[i] | "sort >&2"
			close("sort >&2")
			exit nbad > 0
		}'
}

case "$STAGE" in
lint) run_lint ;;
unit) run_unit "$@" ;;
smoke) run_smoke ;;
fuzz) run_fuzz ;;
bench) run_bench ;;
reach) run_reach ;;
all)
	run_lint
	run_unit "$@"
	run_smoke
	run_bench
	run_reach
	;;
esac

echo "CI gate passed ($STAGE)."
