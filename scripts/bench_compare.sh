#!/usr/bin/env bash
# Thin wrapper over the rccdiff CI gate: compare two ledger entries (or
# entry/legacy BENCH JSON files) and fail if the top-line throughput
# regressed beyond BENCH_TOLERANCE percent (default 10), with the
# category-level attribution table on failure. Cross-host pairs are
# flagged and their wall-clock comparison skipped; simulated-cycle
# deltas are host-independent and always gated.
#
# Usage: scripts/bench_compare.sh [BASE CUR]
#        BENCH_TOLERANCE=5 scripts/bench_compare.sh @-2 @-1
#        scripts/bench_compare.sh @4 @5
#
# With no arguments it compares the two most recent entries of the
# checked-in ledger/ (refs @-2 and @-1) — the same pair a fresh
# bench_baseline.sh run would extend.
set -euo pipefail

cd "$(dirname "$0")/.."
dir="${LEDGER_DIR:-ledger}"
tol="${BENCH_TOLERANCE:-10}"

case $# in
0) exec go run ./cmd/rccdiff -dir "$dir" -tol "$tol" -ci ;;
2) exec go run ./cmd/rccdiff -dir "$dir" -tol "$tol" -ci "$1" "$2" ;;
*)
	echo "usage: $0 [BASE CUR]   (refs: @N, @-N, ID prefix, or JSON file path)" >&2
	exit 2
	;;
esac
