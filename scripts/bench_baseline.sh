#!/usr/bin/env bash
# Record a simulator-performance baseline into the run ledger. Runs
# BenchmarkSimulatorThroughput and BenchmarkProtocols BENCH_COUNT times
# (repeat-level samples, so rccdiff can compute median ± MAD noise bounds
# instead of trusting a single aggregate) and appends one ledger entry
# with the full host fingerprint (CPU model, cores, GOMAXPROCS, Go
# version, kernel, git SHA).
#
# Usage: scripts/bench_baseline.sh [label]
#        BENCHTIME=3x BENCH_COUNT=5 LEDGER_DIR=ledger scripts/bench_baseline.sh
#
# The default label is "bench <short-sha>". Compare entries with
# cmd/rccdiff:  go run ./cmd/rccdiff -ci   (latest vs previous).
#
# The historical BENCH_<n>.json snapshots live read-only in the
# checked-in ledger/ directory as refs @0-@5 (imported with
# `rccdiff -import`, which still accepts external files).
set -euo pipefail

cd "$(dirname "$0")/.."
dir="${LEDGER_DIR:-ledger}"
benchtime="${BENCHTIME:-3x}"
count="${BENCH_COUNT:-3}"
label="${1:-bench $(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"

go test -run '^$' -bench 'SimulatorThroughput|Protocols' \
	-benchtime "$benchtime" -count "$count" -benchmem . |
	tee /dev/stderr |
	go run ./cmd/rccdiff -dir "$dir" -record -label "$label"
