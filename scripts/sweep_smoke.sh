#!/usr/bin/env bash
# Smoke test of sweep determinism end to end: an rccsweep tclease sweep
# must print the same rows, write the same -trace file and record the
# same -ledger runs (labels and stats) at -j 1 and -j 4. Its rows must
# not all be equal, or these comparisons could not see a result that
# reached the wrong point.
#
# Usage: scripts/sweep_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/rccsweep" ./cmd/rccsweep

sweep=(-bench DLB -scale 0.1)

for j in 1 4; do
	echo "sweep_smoke: rows, -trace and -ledger at -j $j"
	"$tmp/rccsweep" "${sweep[@]}" -j "$j" tclease >"$tmp/rows-j$j.out"
	"$tmp/rccsweep" "${sweep[@]}" -j "$j" -trace "$tmp/trace-j$j.jsonl" -metrics-interval 1000 tclease >/dev/null
	"$tmp/rccsweep" "${sweep[@]}" -j "$j" -ledger "$tmp/ledger-j$j" tclease >/dev/null 2>&1
	# runs is the last field of an entry's canonical JSON.
	sed 's/.*"runs":/"runs":/' "$tmp/ledger-j$j"/entries/*.json >"$tmp/runs-j$j.json"
done
# Two header lines, then one row per lease; drop the lease column.
distinct="$(tail -n +3 "$tmp/rows-j1.out" | awk '{$1=""; print}' | sort -u | wc -l)"
if [ "$distinct" -lt 2 ]; then
	echo "sweep_smoke: FAIL: every tclease point printed the same stats, so the -j diffs are blind" >&2
	exit 1
fi
cmp "$tmp/rows-j1.out" "$tmp/rows-j4.out" || {
	echo "sweep_smoke: FAIL: sweep rows differ between -j 1 and -j 4" >&2
	exit 1
}
cmp "$tmp/trace-j1.jsonl" "$tmp/trace-j4.jsonl" || {
	echo "sweep_smoke: FAIL: sweep -trace differs between -j 1 and -j 4" >&2
	exit 1
}
grep -q '"label":"DLB/TCS@4"' "$tmp/runs-j1.json" || {
	echo "sweep_smoke: FAIL: ledger entry lacks the DLB/TCS@4 sweep point" >&2
	exit 1
}
cmp "$tmp/runs-j1.json" "$tmp/runs-j4.json" || {
	echo "sweep_smoke: FAIL: sweep -ledger runs differ between -j 1 and -j 4" >&2
	exit 1
}
echo "sweep_smoke: PASS ($distinct distinct rows)"
