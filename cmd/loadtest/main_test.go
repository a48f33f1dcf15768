package main

import (
	"strings"
	"testing"
)

// TestRunInProcessSmoke is the CI smoke: a short in-process run must
// produce nonzero throughput, clean predict latency stats, and a parseable
// /metrics exposition carrying the documented catalog size.
func TestRunInProcessSmoke(t *testing.T) {
	res, err := run(config{
		Seed: 1, Warmup: 300, Duration: 1.5, Workers: 4,
		N: 120, Iterations: 4, ObserveFrac: 0.8, AdvanceFrac: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 || res.Throughput <= 0 {
		t.Fatalf("no load driven: %+v", res)
	}
	if res.Errors != 0 {
		t.Errorf("%d request errors", res.Errors)
	}
	p, ok := res.Ops["predict"]
	if !ok || p.Count == 0 {
		t.Fatalf("no predict samples: %+v", res.Ops)
	}
	if p.MeanMS <= 0 || p.TwoSig < 0 || !(p.P50MS <= p.P95MS && p.P95MS <= p.P99MS) {
		t.Errorf("predict latency stats incoherent: %+v", p)
	}
	if o := res.Ops["observe"]; o.Count == 0 {
		t.Error("observe mix configured but no observe samples")
	}
	if res.MetricFamilies < 12 {
		t.Errorf("/metrics exposes %d families, want >= 12", res.MetricFamilies)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := run(config{Workers: 0, Duration: 1}); err == nil {
		t.Error("workers=0 accepted")
	}
	if _, err := run(config{Workers: 1, Duration: 0}); err == nil {
		t.Error("duration=0 accepted")
	}
}

func TestResultPrint(t *testing.T) {
	var sb strings.Builder
	r := result{
		Target: "http://x", Workers: 2, Duration: 1, Total: 10, Throughput: 10,
		Ops:            map[string]opStats{"predict": {Count: 10, RPS: 10, MeanMS: 2, TwoSig: 0.5, P50MS: 1.9, P95MS: 2.8, P99MS: 3}},
		MetricFamilies: 13,
	}
	r.print(&sb)
	out := sb.String()
	for _, want := range []string{"2 workers", "predict", "±", "13 families"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRunFleetKillRestoreSmoke is the fleet-mode acceptance: 1,000
// lazily-instantiated tenant platforms, a mid-run snapshot/kill/restore
// cycle, and the run still completes with zero request errors.
func TestRunFleetKillRestoreSmoke(t *testing.T) {
	res, err := run(config{
		Seed: 1, Duration: 2, Workers: 8,
		N: 120, Iterations: 4, ObserveFrac: 0.8, AdvanceFrac: 0.1,
		Platforms: 1000, KillRestore: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("%d request errors across the kill/restore cycle", res.Errors)
	}
	if res.Restores != 1 {
		t.Errorf("restores = %d, want 1", res.Restores)
	}
	if p := res.Ops["predict"]; p.Count == 0 {
		t.Fatalf("no predict samples: %+v", res.Ops)
	}
	if res.Platforms != 1000 {
		t.Errorf("result platforms = %d", res.Platforms)
	}
}

// TestRunBatchSmoke drives the POST /predict/batch path in-process: batch
// samples must appear, account for every item in the throughput, and stay
// error-free.
func TestRunBatchSmoke(t *testing.T) {
	res, err := run(config{
		Seed: 1, Warmup: 300, Duration: 1, Workers: 4, Batch: 8,
		N: 120, Iterations: 4, ObserveFrac: 0.5, AdvanceFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("%d request errors", res.Errors)
	}
	bs, ok := res.Ops["batch"]
	if !ok || bs.Count == 0 {
		t.Fatalf("no batch samples: %+v", res.Ops)
	}
	if _, ok := res.Ops["predict"]; ok {
		t.Error("batch mode still issued single predicts")
	}
	if res.Total < bs.Count*8 {
		t.Errorf("total %d does not account for %d batches of 8", res.Total, bs.Count)
	}
}

// TestRunSchedSmoke mixes POST /schedule placements into the closed loop:
// every placement must land, and the final /schedule/status sweep must
// account for every submitted job.
func TestRunSchedSmoke(t *testing.T) {
	res, err := run(config{
		Seed: 1, Warmup: 300, Duration: 1.5, Workers: 4,
		N: 120, Iterations: 4, ObserveFrac: 0.5, AdvanceFrac: 0.1,
		SchedFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("%d request errors", res.Errors)
	}
	s, ok := res.Ops["schedule"]
	if !ok || s.Count == 0 {
		t.Fatalf("sched mix configured but no schedule samples: %+v", res.Ops)
	}
	if res.SchedJobs != s.Count {
		t.Errorf("status reports %d jobs, drove %d placements", res.SchedJobs, s.Count)
	}
}
