#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the root of a checkout. Everything the build writes (binary, Go build
# cache, temporary files) stays under .bench_build/ in the checkout, and
# traces and run files go to benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/: the program to measure is not here" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/go-path" GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C benchmark -o "$build/qcc-benchmark" .
exec "$build/qcc-benchmark" --out benchmark/out "$@"
