#!/usr/bin/env bash
# Smoke test of resumable sweeps: a cold rccsweep over an empty
# -cache-dir must reproduce the plain -j sweep byte-for-byte, and a warm
# re-run over the same directory must be served entirely from the
# content-addressed result cache (100% hit ratio) with identical output
# again.
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

{
	echo "cache_smoke_cold: $(grep 'rccsweep: cache' "$tmp/cold.err" | tail -1)"
	echo "cache_smoke_warm: $summary"
} >cache-smoke-metrics.txt
echo "cache_smoke: PASS (metrics in cache-smoke-metrics.txt)"
