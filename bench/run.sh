#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source inside
# the checkout (Go build cache and temp files included, so nothing is written
# outside it) and hands every argument to it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters there.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$here" -o "$build/bench" .
KGBENCH_ROOT="$root" exec "$build/bench" "$@"
