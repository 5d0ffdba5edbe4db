#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#   bash perfbench/run.sh --workload sim-grid --seed 1 --seconds 20 --trace 0
# Everything it writes (Go build cache, binary, scratch directories,
# span files) stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
# HOME too, so the go command's user config and telemetry land here.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
