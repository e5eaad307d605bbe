#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source —
# compiler cache, temporary files and binary all inside the checkout — and
# runs it with the driver's arguments from the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# XDG_CONFIG_HOME: the go command keeps its telemetry counters there.
(cd "$root/bench" && XDG_CONFIG_HOME="$build/config" go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
