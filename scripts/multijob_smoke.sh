#!/bin/sh
# multijob_smoke.sh -- `make multijob-smoke`: the live multi-job drill.
#
# Boots one UDP aggregator serving two jobs (-jobs 2 -job-base 4) and
# trains two 2-worker jobs against it at once, each worker verifying
# its aggregates (the default -verify). The jobs stream different
# tensor sizes, so a result routed to the wrong job would also stall
# its stream offsets. The gate passes only if all four workers exit
# cleanly, and if the aggregator refuses -jobs 2 with -liveness (the
# failure detector's generation fences need the id space of one job).
set -eu

DIR=$(mktemp -d)
AGG=
trap 'kill $AGG 2>/dev/null || true; rm -rf "$DIR"' EXIT

PORT=${MULTIJOB_SMOKE_AGG_PORT:-15855}

go build -o "$DIR" ./cmd/switchml-agg ./cmd/switchml-worker

fail() {
    echo "multijob-smoke: $1" >&2
    for f in "$DIR"/*.log; do
        echo "--- $(basename "$f") ---" >&2; cat "$f" >&2 || true
    done
    exit 1
}

"$DIR/switchml-agg" -listen 127.0.0.1:$PORT -workers 2 -pool 16 -elems 32 \
    -jobs 2 -job-base 4 > "$DIR/agg.log" 2>&1 &
AGG=$!
sleep 0.3

PIDS=
for job in 4 5; do
    for id in 0 1; do
        "$DIR/switchml-worker" -agg 127.0.0.1:$PORT -job $job -id $id -workers 2 \
            -pool 16 -elems-per-tensor $((job * 500)) -iters 200 \
            > "$DIR/j$job-w$id.log" 2>&1 &
        PIDS="$PIDS $!"
    done
done
for pid in $PIDS; do
    wait "$pid" || fail "a worker exited non-zero"
done
for job in 4 5; do
    for id in 0 1; do
        grep -q "done: mean" "$DIR/j$job-w$id.log" || fail "job $job worker $id did not finish"
    done
done
kill $AGG
wait $AGG 2>/dev/null || true

# A detector-armed aggregator cannot serve a second job: it must exit
# non-zero at startup instead of serving.
"$DIR/switchml-agg" -listen 127.0.0.1:$PORT -workers 2 -jobs 2 -liveness 1s \
    > "$DIR/refuse.log" 2>&1 &
AGG=$!
tries=0
while kill -0 $AGG 2>/dev/null; do
    tries=$((tries + 1))
    [ $tries -gt 100 ] && fail "-jobs 2 -liveness 1s kept serving"
    sleep 0.05
done
if wait $AGG; then
    fail "-jobs 2 -liveness 1s exited zero"
fi
grep -q "Liveness" "$DIR/refuse.log" || fail "-jobs 2 -liveness 1s failed for another reason"

echo "multijob-smoke: two live jobs on one aggregator ok; -jobs 2 -liveness refused"
