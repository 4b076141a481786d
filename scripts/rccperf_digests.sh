#!/usr/bin/env bash
# Pins the behaviour of the four full-scale rccperf workloads. Each line
# of scripts/rccperf.digests runs one workload once (one timed pass, no
# time budget) at its seed, 1 unless the line gives one, and the digest in
# the first header line of its report must equal the one checked in. The
# digest hashes every run's full counters, so any change in simulated
# behaviour on any kernel, protocol or model-checked program shows up as
# a mismatch.
#
# Usage: scripts/rccperf_digests.sh
#
# A change that is meant to alter simulated behaviour regenerates the
# file from the report headers:
#
#	bash bench/run.sh --workload W --seed S --passes 1 --seconds 0 | head -1
set -euo pipefail

cd "$(dirname "$0")/.."
want=scripts/rccperf.digests

fail=0
while read -r wl digest seed <&3; do
	case $wl in '' | '#'*) continue ;; esac
	seed=${seed:-1}
	out="$(bash bench/run.sh --workload "$wl" --seed "$seed" --passes 1 --seconds 0)"
	got="$(printf '%s\n' "$out" | awk '$1 == "workload" { print $NF; exit }')"
	if [ "$got" = "$digest" ]; then
		echo "rccperf_digests: $wl seed $seed ok ($got)"
	else
		echo "rccperf_digests: FAIL: $wl seed $seed digest $got, want $digest" >&2
		fail=1
	fi
done 3<"$want"
exit "$fail"
