#!/usr/bin/env sh
# bench.sh — run a micro-benchmark suite and record the results as JSON
# at the repo root. With no overrides it measures the data-plane kernels
# (the codecs and wavelet kernels in the root package, and the BZW stage
# profile and LZW decode rows in internal/compress) into BENCH_kernels.json;
# BENCH_FILTER/BENCH_PKG/BENCH_OUT retarget it at another suite (see
# scripts/bench_edge.sh) — BENCH_PKG may list several packages, separated
# by spaces. Pass extra go-test flags through, e.g.
# `scripts/bench.sh -benchtime 5s`.
#
# The JSON maps each benchmark to its ns/op, MB/s (when reported),
# B/op, and allocs/op, so successive runs can be diffed for regressions.
# Custom units emitted via b.ReportMetric (e.g. sessions/sec, p95 scores)
# are captured too, under the unit name with non-alphanumerics mapped
# to "_".
set -eu

cd "$(dirname "$0")/.."

BENCHES="${BENCH_FILTER:-BenchmarkLZWEncode|BenchmarkLZWDecode|BenchmarkBZWEncode|BenchmarkBZWDecode|BenchmarkChunkExtract|BenchmarkHaarDecompose|BenchmarkBZWStages|BenchmarkLZWStages}"
PKG="${BENCH_PKG:-. ./internal/compress}"
OUT="${BENCH_OUT:-BENCH_kernels.json}"

echo "== go test -p 1 -bench '$BENCHES' -benchmem $* $PKG"
# $PKG is split on purpose: it is a list of packages (-p 1: one package's
# benchmarks at a time, or they would time each other).
# shellcheck disable=SC2086
go test -p 1 -run '^$' -bench "$BENCHES" -benchmem -benchtime "${BENCHTIME:-2s}" "$@" $PKG |
	tee /dev/stderr |
	awk '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		nsop = ""; mbs = ""; bop = ""; allocs = ""; extras = ""
		for (i = 3; i <= NF; i++) {
			v = $(i - 1)
			if (v !~ /^-?[0-9.][0-9.eE+-]*$/) continue
			if ($i == "ns/op") nsop = v
			else if ($i == "MB/s") mbs = v
			else if ($i == "B/op") bop = v
			else if ($i == "allocs/op") allocs = v
			else if ($i ~ /^[A-Za-z][A-Za-z0-9\/%_.-]*$/) {
				u = $i
				gsub(/[^A-Za-z0-9]/, "_", u)
				extras = extras ", \"" u "\": " v
			}
		}
		line = "  \"" name "\": {\"ns_op\": " nsop
		if (mbs != "") line = line ", \"mb_s\": " mbs
		if (bop != "") line = line ", \"b_op\": " bop
		if (allocs != "") line = line ", \"allocs_op\": " allocs
		line = line extras "}"
		lines[n++] = line
	}
	END {
		print "{"
		for (i = 0; i < n; i++) print lines[i] (i < n - 1 ? "," : "")
		print "}"
	}' >"$OUT"

echo "wrote $OUT"
