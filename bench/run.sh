#!/usr/bin/env bash
# run.sh — the benchmark's entry point (BENCHMARK.json "command").
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash bench/run.sh compare A.jsonl B.jsonl
#
# Builds the harness (this directory's own module) and hands over to it; the
# harness builds cmd/predictd from the tree. Every build output, Go cache
# and temp file stays under .bench_build/ in the checkout, so a run reads
# and writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
work="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/predictd" ]; then
    echo "bench/run.sh: $root is not a prodpred checkout (no go.mod or cmd/predictd): nothing to measure" >&2
    exit 2
fi
mkdir -p "$work/gocache" "$work/tmp" "$work/bin"
# The go command keeps a module cache, an env file and telemetry counters
# under the user's home; point all of them into the checkout as well.
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOPATH="$work/gopath" \
    XDG_CONFIG_HOME="$work/config" GOENV=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$work/bin/bench" .)
sub=run
if [ "${1:-}" = compare ] || [ "${1:-}" = run ]; then
    sub=$1
    shift
fi
exec "$work/bin/bench" "$sub" -root "$root" "$@"
