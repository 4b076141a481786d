#!/usr/bin/env bash
# Smoke test of resumable sweeps: a cold rccsweep over an empty
# -cache-dir must reproduce the plain -j sweep byte-for-byte, and a warm
# re-run over the same directory must be served entirely from the
# content-addressed result cache (100% hit ratio) with identical output
# again. It then checks the sweep observers are independent of -j: the
# -trace file and the runs (labels and stats) of a -ledger entry must be
# byte-identical between -j 1 and -j 4.
#
# Usage: scripts/cache_smoke.sh
#
# Writes the observed cache-hit-ratio metric lines to
# cache-smoke-metrics.txt for CI artifact upload.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/rccsweep" ./cmd/rccsweep

sweep=(-bench DLB -scale 0.1)

echo "cache_smoke: reference (-j 2)"
"$tmp/rccsweep" "${sweep[@]}" -j 2 lease >"$tmp/ref.out"

echo "cache_smoke: cold run into an empty cache"
"$tmp/rccsweep" "${sweep[@]}" -cache-dir "$tmp/cache" lease >"$tmp/cold.out" 2>"$tmp/cold.err"
diff -u "$tmp/ref.out" "$tmp/cold.out" || {
	echo "cache_smoke: FAIL: cold cached sweep output differs from -j 2" >&2
	exit 1
}

echo "cache_smoke: warm re-run over the same cache"
"$tmp/rccsweep" "${sweep[@]}" -cache-dir "$tmp/cache" lease >"$tmp/warm.out" 2>"$tmp/warm.err"
diff -u "$tmp/ref.out" "$tmp/warm.out" || {
	echo "cache_smoke: FAIL: warm cached sweep output differs from -j 2" >&2
	exit 1
}
summary="$(grep 'rccsweep: cache' "$tmp/warm.err" | tail -1)"
echo "cache_smoke: $summary"
case "$summary" in
*"hit ratio 100%"*) ;;
*)
	echo "cache_smoke: FAIL: warm run was not served 100% from the cache" >&2
	exit 1
	;;
esac

for j in 1 4; do
	echo "cache_smoke: -trace and -ledger at -j $j"
	"$tmp/rccsweep" "${sweep[@]}" -j "$j" -trace "$tmp/trace-j$j.jsonl" -metrics-interval 1000 lease >/dev/null
	"$tmp/rccsweep" "${sweep[@]}" -j "$j" -ledger "$tmp/ledger-j$j" lease >/dev/null 2>&1
	# runs is the last field of an entry's canonical JSON.
	sed 's/.*"runs":/"runs":/' "$tmp/ledger-j$j"/entries/*.json >"$tmp/runs-j$j.json"
done
cmp "$tmp/trace-j1.jsonl" "$tmp/trace-j4.jsonl" || {
	echo "cache_smoke: FAIL: sweep -trace differs between -j 1 and -j 4" >&2
	exit 1
}
grep -q '"label":"DLB/RCC@5"' "$tmp/runs-j1.json" || {
	echo "cache_smoke: FAIL: ledger entry lacks the DLB/RCC@5 sweep point" >&2
	exit 1
}
cmp "$tmp/runs-j1.json" "$tmp/runs-j4.json" || {
	echo "cache_smoke: FAIL: sweep -ledger runs differ between -j 1 and -j 4" >&2
	exit 1
}

{
	echo "cache_smoke_cold: $(grep 'rccsweep: cache' "$tmp/cold.err" | tail -1)"
	echo "cache_smoke_warm: $summary"
} >cache-smoke-metrics.txt
echo "cache_smoke: PASS (metrics in cache-smoke-metrics.txt)"
