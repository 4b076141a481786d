#!/usr/bin/env bash
# Pins the behaviour of the four full-scale rccperf workloads. Each
# workload runs once (seed 1, one timed pass, no time budget) and the
# digest in the first header line of its report must equal the one
# checked in at scripts/rccperf.digests. The digest hashes every run's
# full counters, so any change in simulated behaviour on any kernel,
# protocol or model-checked program shows up as a mismatch.
#
# Usage: scripts/rccperf_digests.sh
#
# A change that is meant to alter simulated behaviour regenerates the
# file from the report headers:
#
#	bash bench/run.sh --workload W --seed 1 --passes 1 --seconds 0 | head -1
set -euo pipefail

cd "$(dirname "$0")/.."
want=scripts/rccperf.digests

fail=0
while read -r wl digest <&3; do
	case $wl in '' | '#'*) continue ;; esac
	out="$(bash bench/run.sh --workload "$wl" --seed 1 --passes 1 --seconds 0)"
	got="$(printf '%s\n' "$out" | awk '$1 == "workload" { print $NF; exit }')"
	if [ "$got" = "$digest" ]; then
		echo "rccperf_digests: $wl ok ($got)"
	else
		echo "rccperf_digests: FAIL: $wl digest $got, want $digest" >&2
		fail=1
	fi
done 3<"$want"
exit "$fail"
