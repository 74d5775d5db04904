#!/usr/bin/env bash
# Identity gate: the ledger's three DES workloads must still compute exactly
# what scripts/ledger_identity.txt pins — same event count, same trace hash.
# Only those two rows are compared; the run's own timing-dependent checks
# (e.g. the traced storm's single-sample background-share check) are not
# this gate's business.
# Run from anywhere: scripts/ledger_identity.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
while read -r workload events fnv; do
    out="$(bash benchmark/run.sh --workload "$workload" --seed 11 --seconds 1 --trace 1 || true)"
    got_events="$(awk '$1 == "metric" && $2 == "sim.events" { print $3 }' <<<"$out")"
    got_fnv="$(awk '$1 == "metric" && $2 == "sim.trace_fnv64" { print $3 }' <<<"$out")"
    if [[ "$got_events" == "$events" && "$got_fnv" == "$fnv" ]]; then
        echo "identity $workload ok (events $events, trace_fnv64 $fnv)"
    else
        echo "identity $workload MISMATCH: events ${got_events:-none} (pinned $events)," \
            "trace_fnv64 ${got_fnv:-none} (pinned $fnv)"
        status=1
    fi
done < <(grep -Ev '^(#|$)' scripts/ledger_identity.txt)
exit "$status"
