#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload cold-fig3a --seed 1 --seconds 30 --trace 0
#
# bench/ is a Go module of its own that points at the repository root
# with a replace directive. Everything the build and the run write
# (binary, Go build cache, temporary files, the go command's telemetry
# counters, traced-run spans) stays under bench/.bench_build/, and the
# toolchain is pinned to the local one with the module proxy off, so a
# build never reaches the network.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
build="$here/.bench_build"
mkdir -p "$build/tmp"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"

cd "$here"
go build -o "$build/bench" .
exec "$build/bench" "$@"
