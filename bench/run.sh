#!/usr/bin/env bash
# Builds bench/rccperf from source and runs it with the given arguments.
# Run it from the repository root:
#
#	bash bench/run.sh --workload suite-sc --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the current directory. Outside a full checkout (no
# go.mod above bench/) the build fails and the script exits non-zero.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in the checkout;
# GOTOOLCHAIN and GOPROXY forbid any download.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/rccperf" ./rccperf)
exec "$out/rccperf" "$@"
