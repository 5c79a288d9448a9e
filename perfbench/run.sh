#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the root
# of the repository:
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
#
# Everything the benchmark builds or writes (go build cache, binaries,
# inputs) lives under .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off
export GOWORK=off

go -C perfbench build -o "$build/perfbench/bin/perfbench" .
exec "$build/perfbench/bin/perfbench" "$@"
