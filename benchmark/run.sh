#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash benchmark/run.sh --workload hot-read --seed 1 --seconds 40 --trace 0
# Everything it builds or writes stays under .bench_build/ in the
# current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/skyline-benchmark" .)
exec "$build/skyline-benchmark" -workdir "$build/work" "$@"
