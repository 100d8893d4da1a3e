#!/usr/bin/env bash
# Builds the load generator and the server under test (cmd/imrdmd-serve)
# from the source tree this script sits in, then runs one benchmark
# invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload dashboard_sclog --seed 1 --seconds 30 --trace 0
#
# Every build artifact, cache and trace stays under .bench_build/ in the
# working directory. Build output goes to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin"

# Keep the go command's cache, module cache, temporary files, config and
# telemetry inside the checkout, and never switch toolchains.
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOENV=off
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/bin/" . imrdmd/cmd/imrdmd-serve >&2

exec "$out/bin/perfbench" -server "$out/bin/imrdmd-serve" -out "$out" "$@"
