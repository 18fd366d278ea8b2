#!/bin/sh
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout:
#
#   sh cmd/privagic-e2e/run.sh --workload treemap-relaxed --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files, Go's own config writes and the binary
# stay under .bench_build in the checkout (or $CARGO_TARGET_DIR, the build
# directory a benchmark harness may set), so repeated runs reuse the first
# build. GOTOOLCHAIN=local keeps the go command from fetching a toolchain.
# Telemetry is switched off in that config directory: in a fresh one the go
# command otherwise forks a detached telemetry process that outlives it.
set -eu
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$(pwd)/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/privagic-e2e" ./cmd/privagic-e2e
exec "$out/privagic-e2e" "$@"
