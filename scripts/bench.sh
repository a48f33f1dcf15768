#!/usr/bin/env bash
# bench.sh — run the root benchmark suite (every table/figure reproduction
# plus the kernel micro-benchmarks) and record, per benchmark, the mean,
# the median and the min–max range of ns/op, B/op and allocs/op over the
# COUNT runs in a dated JSON summary, so the performance trajectory of the
# hot paths is tracked in-repo across PRs with its spread.
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

# stat UNIT WHAT prints, per benchmark, WHAT of its values in UNIT over the
# COUNT runs as a JSON object body, sorted by name: "mean", "median" (the
# middle value, or the mean of the two middle ones) or "range" ([min, max]).
# A value is found by the unit after it, not by its column: custom units
# (MB/s, *_rmse, ...) sit between ns/op and B/op.
stat() {
    awk -v unit="$1" '$1 ~ /^Benchmark/ {
            for (i = 3; i < NF; i += 2) {
                if ($(i + 1) != unit) continue
                name = $1; sub(/-[0-9]+$/, "", name)
                print name, $i
            }
         }' "$raw" |
        sort -k1,1 -k2,2g |
        awk -v what="$2" '
            function flush() {
                if (n == 0) return
                if (what == "mean") {
                    s = 0; for (j = 1; j <= n; j++) s += v[j]
                    val = sprintf("%.1f", s / n)
                } else if (what == "median") {
                    m = int((n + 1) / 2)
                    val = sprintf("%.1f", n % 2 ? v[m] : (v[m] + v[m + 1]) / 2)
                } else {
                    val = sprintf("[%.1f, %.1f]", v[1], v[n])
                }
                printf "%s    \"%s\": %s", sep, name, val; sep = ",\n"
            }
            $1 != name { flush(); name = $1; n = 0 }
            { v[++n] = $2 }
            END { flush(); printf "\n" }'
}

# section KEY UNIT WHAT LAST prints one JSON member; LAST is "," or "".
section() {
    printf '  "%s": {\n' "$1"
    stat "$2" "$3"
    printf '  }%s\n' "$4"
}

{
    printf '{\n'
    printf '  "date": "%s",\n' "$day"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "count": %s,\n' "$count"
    section ns_per_op ns/op mean ,
    section bytes_per_op B/op mean ,
    section allocs_per_op allocs/op mean ,
    section ns_per_op_median ns/op median ,
    section bytes_per_op_median B/op median ,
    section allocs_per_op_median allocs/op median ,
    section ns_per_op_range ns/op range ,
    section bytes_per_op_range B/op range ,
    section allocs_per_op_range allocs/op range ""
    printf '}\n'
} >"$out"

echo "bench.sh: wrote $out"
