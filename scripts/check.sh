#!/usr/bin/env bash
# check.sh — the repo gate, and all of what CI runs: formatting, vet, the
# race-clean test suite, a one-iteration bench smoke, the serving smokes, a
# short fuzz of the request decoder, and the bench/ module's vet + tests.
# The SOR worker pool, the sharded Monte Carlo engine, and the
# predict.Service prediction core are concurrent by design, so -race is not
# optional here.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "check.sh: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go test -race ./...
# Bench smoke: every benchmark must still run for one iteration without
# error (no measurement — regressions are caught by scripts/bench.sh).
go test -bench=. -benchtime=1x -run '^$' ./...

# Loadtest smokes: a short closed-loop run against the in-process serving
# stack must produce nonzero throughput with zero request errors and a
# parseable /metrics exposition, the tick-cached serving path must not be
# slower than the same run with the cache disabled, and a 1,000-tenant
# fleet must survive a mid-run snapshot/kill/restore cycle with zero
# errors (~6 s budget total; the asserting tests wrap cmd/loadtest's run
# function).
go test -run 'TestRunInProcessSmoke|TestCacheVsUncachedSmoke|TestRunFleetKillRestoreSmoke' -count=1 ./cmd/loadtest

# Distribution-valued serving smoke: the forecaster tournament must beat
# the normal incumbent and the recentered quantile grid must hold nominal
# coverage on the bursty acceptance scenario (~4 s; the asserting tests
# replay the dist-tournament experiment on its pinned seeds).
go test -run 'TestDistTournamentShape|TestDistTournamentStableAcrossSeeds' -count=1 ./internal/experiments

# Workload-scenario smoke: record a scenario-driven service's served loads
# to trace files, replay them through a fresh service, and assert the
# predictions come back bit-identical; plus the scenario-sweep scorecard
# acceptance (every library scenario's capture/width/Winkler within its
# pinned bounds). ~3 s.
go test -run 'TestScenarioRecordReplayBitIdentical|TestWorkloadScenariosShape' -count=1 ./internal/predict ./internal/experiments
# The loadgen CLI must round-trip the trace format end to end: generate a
# short trace from a library scenario, then replay-summarize it.
tmptrace=$(mktemp)
go run ./cmd/loadgen -scenario flash-crowd -duration 600 -o "$tmptrace" >/dev/null
go run ./cmd/loadgen -replay "$tmptrace" >/dev/null
rm -f "$tmptrace"

# Fleet-scheduler smoke: the fleet-sched experiment's acceptance — p95
# placement strictly beats mean placement on makespan AND deadline-miss
# rate under both bursty scenarios at the pinned seed (~13 s), plus a
# short loadtest mixing POST /schedule submissions into the worker loop
# with the scheduler's ledger reconciled against the client-side count.
go test -run 'TestFleetSchedQuantileWins$' -count=1 ./internal/experiments
go test -run 'TestRunSchedSmoke' -count=1 ./cmd/loadtest

# Fuzz smoke: a few seconds of coverage-guided bytes into every
# body-reading route of the real handler — never a panic, always a JSON
# answer with status 200, 400 or 404.
go test -run '^$' -fuzz FuzzPostBodies -fuzztime 5s ./internal/api

# The benchmark harness is its own module (bench/go.mod, replace prodpred
# => ../), so ./... above does not see it: vet and test it here, or an
# internal/ API change breaks bench/adapter.go silently.
(cd bench && go vet ./... && go test ./...)

# Snapshot round-trip smoke over the real daemon binary: serve, snapshot,
# kill, restore — the restored daemon must answer byte-identically to the
# one that never stopped.
scripts/snapshot_smoke.sh

# Coverage summary for the online-calibration layer (report-only, no gate).
go test -cover ./internal/calib ./internal/predict | awk '{print "check.sh: coverage:", $0}'

echo "check.sh: gofmt, vet, race-enabled tests, bench and serving smokes, POST-body fuzz, snapshot round trip, and the bench/ module all clean"
