#!/usr/bin/env bash
# bench.sh — run the root benchmark suite (every table/figure reproduction
# plus the kernel micro-benchmarks) and record the mean ns/op per benchmark
# in a dated JSON summary, so the performance trajectory of the hot paths is
# tracked in-repo across PRs.
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

{
    printf '{\n'
    printf '  "date": "%s",\n' "$day"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "count": %s,\n' "$count"
    printf '  "ns_per_op": {\n'
    awk '$1 ~ /^Benchmark/ && $4 == "ns/op" {
            name = $1; sub(/-[0-9]+$/, "", name)
            sum[name] += $3; cnt[name]++
         }
         END { for (k in sum) printf "%s %.1f\n", k, sum[k] / cnt[k] }' "$raw" |
        sort |
        awk '{ printf "%s    \"%s\": %s", sep, $1, $2; sep = ",\n" } END { printf "\n" }'
    printf '  }\n'
    printf '}\n'
} >"$out"

echo "bench.sh: wrote $out"
