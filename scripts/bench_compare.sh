#!/usr/bin/env bash
# Thin wrapper over the rccdiff CI gate: compare two ledger entries (or
# entry JSON files) and fail if any benchmark both share grew more than
# BENCH_TOLERANCE percent (default 10) in median ns/op and outside its
# 3-MAD noise band. A benchmark with one sample on either side has no
# noise estimate and is shown but not gated. Cross-host pairs are flagged
# and their wall-clock comparison skipped; simulated-cycle deltas of
# shared runs are host-independent and always gated, with the
# category-level attribution table on failure.
#
# Usage: scripts/bench_compare.sh [BASE CUR]
#        BENCH_TOLERANCE=5 scripts/bench_compare.sh @-2 @-1
#        scripts/bench_compare.sh @4 @5
#
# With no arguments it compares the two most recent entries of the
# checked-in ledger/ (refs @-2 and @-1) — the pair a fresh
# bench_baseline.sh run would extend. A pair that shares no benchmark and
# no run prints "verdict: NO-DATA"; CI fails on that.
set -euo pipefail

cd "$(dirname "$0")/.."
dir="${LEDGER_DIR:-ledger}"
tol="${BENCH_TOLERANCE:-10}"

case $# in
0) exec go run ./cmd/rccdiff -dir "$dir" -tol "$tol" -ci ;;
2) exec go run ./cmd/rccdiff -dir "$dir" -tol "$tol" -ci "$1" "$2" ;;
*)
	echo "usage: $0 [BASE CUR]   (refs: @N, @-N, ID prefix, or entry JSON path)" >&2
	exit 2
	;;
esac
