#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# The build cache, the binary and everything a run writes go under
# .bench_build/ at the root of the checkout, so nothing outside it is
# touched. Fails, printing no result, where there is no module to build.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
