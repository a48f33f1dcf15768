#!/usr/bin/env bash
# snapshot_smoke.sh — end-to-end snapshot/restore drill over the real
# daemon binary and real sockets: serve, predict, snapshot, keep serving
# (the uninterrupted reference), kill, restore from the image, and assert
# the restored daemon answers the next prediction byte-identically —
# same values, same prediction ID — to the daemon that never stopped.
#
# Runs the built-in fleet (its default 600 s warm-up) with -tick 0 (manual
# clock only), so both timelines are pure functions of the served request
# sequence and the comparison is exact.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/predictd" ./cmd/predictd

# wait_addr <logfile>: poll the startup log for the bound address.
wait_addr() {
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/.* on \([0-9.]*:[0-9]*\) (.*/\1/p' "$1")
        if [ -n "$addr" ]; then
            echo "$addr"
            return 0
        fi
        sleep 0.1
    done
    echo "snapshot_smoke.sh: daemon never logged its address" >&2
    cat "$1" >&2
    return 1
}

body='{"platform":"platform2","n":400,"iterations":6}'

"$workdir/predictd" -addr 127.0.0.1:0 -tick 0 2> "$workdir/a.log" &
pids+=($!)
addr_a=$(wait_addr "$workdir/a.log")

curl -sf "http://$addr_a/predict" -d "$body" > "$workdir/p1.json"
curl -sf -X POST "http://$addr_a/snapshot" -o "$workdir/fleet.snap"
# The uninterrupted daemon's next answer is the reference.
curl -sf "http://$addr_a/predict" -d "$body" > "$workdir/ref.json"
kill "${pids[0]}" 2>/dev/null || true
wait "${pids[0]}" 2>/dev/null || true
pids=()

"$workdir/predictd" -addr 127.0.0.1:0 -tick 0 -restore "$workdir/fleet.snap" 2> "$workdir/b.log" &
pids+=($!)
addr_b=$(wait_addr "$workdir/b.log")

curl -sf "http://$addr_b/predict" -d "$body" > "$workdir/got.json"

if ! cmp -s "$workdir/ref.json" "$workdir/got.json"; then
    echo "snapshot_smoke.sh: restored daemon diverged from the uninterrupted run" >&2
    echo "  reference: $(cat "$workdir/ref.json")" >&2
    echo "  restored:  $(cat "$workdir/got.json")" >&2
    exit 1
fi

echo "snapshot_smoke.sh: restored daemon byte-identical to uninterrupted run ($(cat "$workdir/got.json" | head -c 80)...)"
