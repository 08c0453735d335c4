#!/usr/bin/env bash
# Builds the benchmark harness from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload query-hit --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the Go toolchain would write
# (build cache, module cache, telemetry, temp files) goes under
# .bench_build/ in that root, and no toolchain or module is fetched.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/cache"

export GOCACHE="$build/cache/go-build"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
