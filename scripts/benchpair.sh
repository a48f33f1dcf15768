#!/usr/bin/env bash
# benchpair.sh — the paired measurement every claimed gain rests on
# (ROADMAP item 2, bench/README.md "For a claimed gain"): REF against this
# tree on one workload of BENCHMARK.json, in alternating pairs.
#
# Usage: scripts/benchpair.sh REF WORKLOAD [PAIRS=10]
#   scripts/benchpair.sh HEAD tick-storm        # the working tree against its parent
#   scripts/benchpair.sh HEAD~1 hot-hit 5
#
# REF is checked out (git archive) into .bench_build/pair/ref; "change" is
# this tree as it stands, uncommitted edits included. Pair k runs both sides
# at seed k with the benchmark's own settings (12 measured seconds, trace
# 0), REF first when k is odd and the change first when k is even, so drift
# of the machine falls on both. Then:
#   - `bench compare` of the two runs.jsonl: medians, bounds, verdicts;
#   - per pair, which side read better on each timing metric;
#   - per pair, how far capture95 and relwidth95 moved at the same seed, and
#     the mean over the pairs: what a change that moves served bytes on
#     purpose has to show instead of a digest;
#   - one `--epochs 2` run per side at seed 1: whether the response digests
#     are identical, which a change that claims to leave served bytes alone
#     needs them to be.
# Nothing is written outside .bench_build/ (git-ignored). Exit status 1
# only when a run fails; the verdict on the digests, like the one on the
# numbers, is the reader's.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/benchpair.sh REF WORKLOAD [PAIRS=10]" >&2
    exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}

root=$(cd "$(dirname "$0")/.." && pwd)
commit=$(git -C "$root" rev-parse --verify "$ref^{commit}")
pair="$root/.bench_build/pair"
rm -rf "$pair"
mkdir -p "$pair/ref"
git -C "$root" archive "$commit" | tar -x -C "$pair/ref"

# side NAME: the checkout a side runs from.
side() {
    if [ "$1" = ref ]; then echo "$pair/ref"; else echo "$root"; fi
}

# run NAME ARGS...: one benchmark run of a side, from its own checkout and
# with its own bench/, its record appended to out-NAME/runs.jsonl.
run() {
    local name=$1
    shift
    (cd "$(side "$name")" && bash bench/run.sh --workload "$workload" --out "$pair/out-$name" "$@")
}

echo "benchpair: $workload, $pairs pairs, ref $ref ($commit) against the tree at $root"
for k in $(seq 1 "$pairs"); do
    order="ref change"
    if [ $((k % 2)) -eq 0 ]; then order="change ref"; fi
    for name in $order; do
        echo "--- pair $k/$pairs: $name (seed $k)"
        run "$name" --seed "$k" --seconds 12 --trace 0 | grep -E '^ +(cpu_us_per_pred|pred_per_s|attempted) '
    done
done

echo
echo "=== bench compare: ref (A) against change (B)"
bash "$root/bench/run.sh" compare "$pair/out-ref/runs.jsonl" "$pair/out-change/runs.jsonl"

# value FILE LINE METRIC: one metric of the LINE-th run in a runs.jsonl.
value() {
    sed -n "${2}p" "$1" | grep -o "\"$3\":{\"value\":[^,}]*" | sed 's/.*://'
}

echo
echo "=== per pair: change better / worse / tied (lower is better, except pred_per_s and capture95)"
for metric in cpu_us_per_pred pred_per_s setup_s predict_p50_ms observe_p50_ms advance_p50_ms rss_peak_mb capture95 relwidth95; do
    better=0 worse=0 tied=0
    for k in $(seq 1 "$pairs"); do
        a=$(value "$pair/out-ref/runs.jsonl" "$k" "$metric")
        b=$(value "$pair/out-change/runs.jsonl" "$k" "$metric")
        verdict=$(awk -v a="$a" -v b="$b" -v m="$metric" 'BEGIN {
            if (a == b) { print "tied"; exit }
            higher = (m == "pred_per_s" || m == "capture95")
            if ((b < a) != higher) print "better"; else print "worse" }')
        case $verdict in
        better) better=$((better + 1)) ;;
        worse) worse=$((worse + 1)) ;;
        tied) tied=$((tied + 1)) ;;
        esac
    done
    printf '  %-18s %2d / %2d / %2d\n' "$metric" "$better" "$worse" "$tied"
done

echo
echo "=== quality per pair: change minus ref at the same seed, in the metric's own unit"
printf '  %4s  %10s %10s %10s    %10s %10s %10s\n' pair capture95 change diff relwidth95 change diff
for k in $(seq 1 "$pairs"); do
    echo "$k" \
        "$(value "$pair/out-ref/runs.jsonl" "$k" capture95)" "$(value "$pair/out-change/runs.jsonl" "$k" capture95)" \
        "$(value "$pair/out-ref/runs.jsonl" "$k" relwidth95)" "$(value "$pair/out-change/runs.jsonl" "$k" relwidth95)"
done | awk 'function abs(x) { return x < 0 ? -x : x }
    { c = $3 - $2; w = $5 - $4; cs += c; ws += w; ca += abs(c); wa += abs(w); n++
      printf "  %4d  %10.4f %10.4f %+10.4f    %10.4f %10.4f %+10.4f\n", $1, $2, $3, c, $4, $5, w }
    END { if (n) {
      printf "  %-28s %+10.4f    %21s %+10.4f\n", "mean diff", cs / n, "", ws / n
      printf "  %-28s %10.4f    %21s %10.4f\n", "mean |diff|", ca / n, "", wa / n } }'

echo
echo "=== served bytes: --seed 1 --epochs 2 digests"
digest_of() {
    run "$1" --seed 1 --epochs 2 --trace 0 | awk '$1 == "digest" { print $2 }'
}
digest_ref=$(digest_of ref)
digest_change=$(digest_of change)
echo "  ref    $digest_ref"
echo "  change $digest_change"
if [ -z "$digest_ref" ] || [ -z "$digest_change" ]; then
    echo "benchpair: a digest run printed no digest" >&2
    exit 1
fi
if [ "$digest_ref" = "$digest_change" ]; then
    echo "  identical"
else
    echo "  DIFFERENT — the change alters served bytes"
fi
