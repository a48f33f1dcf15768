#!/usr/bin/env bash
# bench.sh — run the root benchmark suite (every table/figure reproduction
# plus the kernel micro-benchmarks) and record the mean ns/op, B/op and
# allocs/op per benchmark in a dated JSON summary, so the performance
# trajectory of the hot paths is tracked in-repo across PRs.
#
# Usage: scripts/bench.sh [extra go-test args...]
#   COUNT=5 scripts/bench.sh            # more repetitions
#   scripts/bench.sh -bench SOR         # restrict the benchmark set
set -euo pipefail
cd "$(dirname "$0")/.."

count="${COUNT:-3}"
# A day's second record does not replace its first: BENCH_<date>.2.json.
day=$(date +%Y-%m-%d)
out="BENCH_$day.json"
n=1
while [ -e "$out" ]; do
    n=$((n + 1))
    out="BENCH_$day.$n.json"
done
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench . -benchmem -count "$count" "$@" . | tee "$raw"

# means UNIT prints each benchmark's mean in UNIT as a JSON object body,
# sorted by name. A value is found by the unit after it, not by its column:
# custom units (MB/s, *_rmse, ...) sit between ns/op and B/op.
means() {
    awk -v unit="$1" '$1 ~ /^Benchmark/ {
            for (i = 3; i < NF; i += 2) {
                if ($(i + 1) != unit) continue
                name = $1; sub(/-[0-9]+$/, "", name)
                sum[name] += $i; cnt[name]++
            }
         }
         END { for (k in sum) printf "%s %.1f\n", k, sum[k] / cnt[k] }' "$raw" |
        sort |
        awk '{ printf "%s    \"%s\": %s", sep, $1, $2; sep = ",\n" } END { printf "\n" }'
}

{
    printf '{\n'
    printf '  "date": "%s",\n' "$day"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "count": %s,\n' "$count"
    printf '  "ns_per_op": {\n'
    means ns/op
    printf '  },\n'
    printf '  "bytes_per_op": {\n'
    means B/op
    printf '  },\n'
    printf '  "allocs_per_op": {\n'
    means allocs/op
    printf '  }\n'
    printf '}\n'
} >"$out"

echo "bench.sh: wrote $out"
