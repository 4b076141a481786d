#!/usr/bin/env bash
# Record a simulator-performance baseline into the run ledger. Runs the
# four rccperf workloads (suite-sc, suite-weak, mc-family, observed) at
# seed 1 with a 20 s budget each and appends them as one ledger entry,
# one repeat-level sample per timed pass (so rccdiff can compute median ±
# MAD noise bounds), with the full host fingerprint (CPU model, cores,
# GOMAXPROCS, Go version, kernel, git SHA).
#
# Usage: scripts/bench_baseline.sh [label]
#        LEDGER_DIR=ledger scripts/bench_baseline.sh
#
# The default label is "bench <short-sha>". Each workload is one
# benchmark, BenchmarkRccperf/<workload>; compare two entries with
#
#	go run ./cmd/rccdiff @-2 @-1
#
# which gates every workload both entries hold on its median ns/op
# (scripts/bench_compare.sh is the same check with exit status 1 on a
# regression). The historical BENCH_<n>.json snapshots live read-only in
# the checked-in ledger/ directory as refs @0-@5.
set -euo pipefail

cd "$(dirname "$0")/.."
dir="${LEDGER_DIR:-ledger}"
label="${1:-bench $(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"

for w in suite-sc suite-weak mc-family observed; do
	bash bench/run.sh --workload "$w" --seed 1 --seconds 20 --format gobench
done |
	tee /dev/stderr |
	go run ./cmd/rccdiff -dir "$dir" -record -label "$label"
