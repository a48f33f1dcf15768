#!/usr/bin/env bash
# check.sh — the repo gate, and all of what CI runs: formatting of the Go
# files git tracks or would add, vet, the race-clean test suite (every smoke
# and acceptance test is in it, once), the concurrency tests of the serving
# core once more at one and at four schedulers, a one-iteration bench smoke,
# the loadgen CLI round trip, a short fuzz of the request decoder, of the
# point and value evaluators against the model tree, of the raced BIC
# selection against the exhaustive one, of the mixture quantile search against
# bisection, of the NWS battery's sorted windows against sort.Float64s, of the
# quantile selection against the sort, of the growing measurement ring against
# a plain slice, of stochcalc's evaluator (finite or an error), of the
# prediction ledger against the map it replaced, of the metrics exposition's
# label escaping, and of the trace, scenario, spec and snapshot readers, one
# run of each program under examples/, the snapshot drill over the real daemon
# binary, the bench/ module's vet + tests, and a report-only line count
# (scripts/loc.sh).
# The strip-parallel SOR backend, the sharded Monte Carlo engine, and the
# predict.Service prediction core are concurrent by design, so -race is not
# optional here.
set -euo pipefail
cd "$(dirname "$0")/.."

# The repository's own files only: a benchmark build leaves cgo-generated Go
# files under .bench_build/ (ignored), which are not ours to format.
unformatted=$(git ls-files -z --cached --others --exclude-standard -- '*.go' | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
    echo "check.sh: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go test -race ./...
# That pass runs at the runner's one GOMAXPROCS. The serving core's locking
# has two shapes that depend on it — Registry.AdvanceAll moves the clocks on
# the caller and leaves the monitors' catch-up to one process-wide
# background queue, which a tenant's own step also feeds with its refits,
# drained by at most GOMAXPROCS−1 workers (one at one scheduler, where they
# only run when the caller yields), and the one-lock-per-owner paths only
# meet where goroutines
# really interleave — so the concurrency tests (and only they) run again at
# both, whatever the runner has; the calibrator's TestConcurrentObserve and
# TestDeterministicState (snapshot readers racing Observe) among them,
# api's TestReportIsOneTick (pollers racing a clock step), predict's
# TestAdvanceAllCatchUpRace (every monitor reader racing waves whose
# catch-up the background has not finished), TestBackgroundRefitReaders
# (reads racing the mixture refits a step leaves to the background),
# TestBackgroundRefitQueueIsProcessWide (two registries' waves and a
# tenant's own step share the one worker bound) and
# TestConcurrentLedger (predicts, observes, discards and snapshot writes on
# one service's ledger) and api's
# TestScrapeDuringFleetOps (GET /metrics, whose gauges read their owners,
# racing fleet traffic); and load's TestSequenceConcurrentReaders (readers
# of one load process ahead of and far behind each other, so some rebuild
# it from tick 0 while others read its ring).
go test -race -cpu 1,4 -run 'Race|Stress|Storm|Coherence|Concurrent|AdvanceAll|FleetAdvance|Registry|Retired|ReportIsOneTick|DeterministicState|BackgroundRefit|ConcurrentLedger|ScrapeDuringFleetOps' \
    ./internal/predict ./internal/fleetsched ./internal/api ./internal/calib ./internal/load
# Bench smoke: every benchmark must still run for one iteration without
# error (no measurement — regressions are caught by scripts/bench.sh).
go test -bench=. -benchtime=1x -run '^$' ./...

# The loadgen CLI must round-trip the trace format end to end: generate a
# short trace from a library scenario, then replay-summarize it.
tmptrace=$(mktemp)
go run ./cmd/loadgen -scenario flash-crowd -duration 600 -o "$tmptrace" >/dev/null
go run ./cmd/loadgen -replay "$tmptrace" >/dev/null
rm -f "$tmptrace"

# Fuzz smoke: a few seconds of coverage-guided bytes into every
# body-reading route of the real handler — never a panic, always a JSON
# answer with status 200, 400 or 404.
go test -run '^$' -fuzz FuzzPostBodies -fuzztime 5s ./internal/api
# And of configs and availability bit patterns into the SOR point evaluator:
# whatever they are, it returns the expression tree's mean or its error.
go test -run '^$' -fuzz FuzzSORPointMatchesTree -fuzztime 5s ./internal/structural
# And of stochastic means and spreads into its value evaluator, which the
# serving path evaluates in the tree's place: the tree's value, spread
# included, or its error.
go test -run '^$' -fuzz FuzzSORValueMatchesTree -fuzztime 5s ./internal/structural
# And of windows into the mixture selection: the error the exhaustive search
# gives, its model bit for bit where the two pick the same k, and otherwise
# one of its own candidates with a BIC no better than its pick's.
go test -run '^$' -fuzz FuzzFitBICRace -fuzztime 5s ./internal/modal
# And of mixtures into the quantile search their forecast grids are read by:
# inside the bracket, monotone in p, and where the bisection it replaced lands.
go test -run '^$' -fuzz FuzzMixtureQuantile -fuzztime 5s ./internal/dist
# And of sample arrivals and departures into the NWS battery's sorted windows:
# always sort.Float64s's order, NaNs, signed zeros and ties included.
go test -run '^$' -fuzz FuzzSortedWindow -fuzztime 5s ./internal/nws
# And of samples and levels into the selection the calibrator reads its
# quantiles by: sort.Float64s + QuantileSorted's answer, and a permutation.
go test -run '^$' -fuzz FuzzQuantileInPlace -fuzztime 5s ./internal/stats
# And of ring sizes and push sequences into the monitors' history ring, whose
# buffers grow as points arrive: after every push, the last Cap points of a
# plain slice, through every accessor.
go test -run '^$' -fuzz FuzzRing -fuzztime 5s ./internal/timeseries
# And of argument vectors into stochcalc's evaluator: an error, or a finite
# value — never an Inf or a NaN printed with exit status 0.
go test -run '^$' -fuzz FuzzEval -fuzztime 5s ./cmd/stochcalc
# And of operation sequences into the prediction ledger: after every issue,
# observe, discard, burst past the bound and snapshot round trip, the live
# count, the outcomes and the snapshot section of the map-and-cursor ledger
# it replaced, and a slab no longer than twice its live entries.
go test -run '^$' -fuzz FuzzLedger -fuzztime 5s ./internal/predict
# And of label values into GET /metrics: whatever bytes a tenant's name
# holds, the scrape parses and the value reads back as that name, each run
# of invalid UTF-8 as one U+FFFD.
go test -run '^$' -fuzz FuzzLabelEscape -fuzztime 5s ./internal/obs
# And of bytes into the four readers behind every built service and trace:
# trace files (never a panic; what is accepted writes and reads back bit for
# bit), scenario files and spec files (never a panic; what is accepted
# re-marshals to a fixed point) and snapshot images (never a panic; what is
# accepted re-snapshots to a fixed point after one round trip).
go test -run '^$' -fuzz FuzzReadTrace -fuzztime 5s ./internal/workload
go test -run '^$' -fuzz FuzzParseScenario -fuzztime 5s ./internal/workload
go test -run '^$' -fuzz FuzzParseSpecs -fuzztime 5s ./internal/predict
go test -run '^$' -fuzz FuzzReadSnapshot -fuzztime 5s ./internal/predict

# Every example must still run to completion: go vet only compiles them.
for ex in examples/*/; do
    if ! go run "./$ex" >/dev/null; then
        echo "check.sh: example $ex failed" >&2
        exit 1
    fi
done

# Snapshot round-trip smoke over the real daemon binary: serve, snapshot,
# kill, restore — the restored daemon must answer byte-identically to the
# one that never stopped.
scripts/snapshot_smoke.sh

# The benchmark harness is its own module (bench/go.mod, replace prodpred
# => ../), so ./... above does not see it: vet and test it here, or an
# internal/ API change breaks bench/adapter.go silently. It runs after the
# examples and the snapshot drill so that a failure here (its
# TestTraceSpansNest is timing-sensitive on a loaded box) does not keep them
# from running; it still fails the script.
(cd bench && go vet ./... && go test ./...)

# Coverage summary for the online-calibration layer (report-only, no gate).
go test -cover ./internal/calib ./internal/predict | awk '{print "check.sh: coverage:", $0}'
# Go line count of the root module (report-only, no gate).
scripts/loc.sh | awk '{print "check.sh: lines:", $0}'

echo "check.sh: gofmt, vet, race-enabled tests, the concurrency tests at -cpu 1,4, bench smoke, loadgen round trip, POST-body, point- and value-evaluator, BIC-race, mixture-quantile, sorted-window, quantile-selection, ring (FuzzRing), stochcalc-evaluator, ledger (FuzzLedger), label-escape (FuzzLabelEscape), trace-reader (FuzzReadTrace), scenario-parser (FuzzParseScenario), spec-parser (FuzzParseSpecs) and snapshot-reader (FuzzReadSnapshot) fuzz, the examples, the snapshot round trip, and the bench/ module all clean"
