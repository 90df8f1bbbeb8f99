#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command, called from the root of a checkout:
# builds the benchmark from source and runs it with the arguments given.
# Everything the build and the run leave behind — the Go build cache, temp
# files, the binary, span files — goes under .bench_build/ in the checkout,
# so nothing outside it is written.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $root: the benchmark builds inside a checkout of the repository" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
