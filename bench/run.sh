#!/usr/bin/env bash
# Builds the benchmark command from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload saturated-256 --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, its
# config and telemetry directory, the binary) goes under .bench_build/ in
# the working directory. A tree that
# lacks the simulator's sources fails the build, and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" "$@"
