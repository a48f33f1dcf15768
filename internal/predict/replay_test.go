package predict_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"prodpred/internal/predict"
	"prodpred/internal/stochastic"
	"prodpred/internal/workload"
)

// scenarioMachines is the platform shape the record/replay tests run on.
func scenarioMachines() []predict.MachineSpec {
	return []predict.MachineSpec{
		{Name: "m0", Kind: "sparc5"},
		{Name: "m1", Kind: "sparc10"},
		{Name: "m2", Kind: "ultra"},
		{Name: "m3", Kind: "ultra"},
	}
}

// driveReplay advances the service through a fixed schedule, issuing one
// distribution-valued prediction per tick and returning each prediction's
// JSON encoding — the byte-level artifact the replay must reproduce.
func driveReplay(t *testing.T, svc *predict.Service, steps int) [][]byte {
	t.Helper()
	req := predict.Request{
		N:           96,
		Iterations:  4,
		MaxStrategy: stochastic.LargestMean,
		Levels:      []float64{0.5, 0.95},
	}
	out := make([][]byte, 0, steps)
	for i := 0; i < steps; i++ {
		if err := svc.Advance(20); err != nil {
			t.Fatal(err)
		}
		p, err := svc.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestScenarioRecordReplayBitIdentical is the record→replay acceptance
// test: predictions served while a scenario generates the load, recorded
// to trace files and replayed via LoadSpec{Kind:"trace"}, must come back
// byte-identical — the CI smoke runs exactly this test.
func TestScenarioRecordReplayBitIdentical(t *testing.T) {
	const scenario = "heavy-tail-batch"
	spec := predict.PlatformSpec{
		Name:     "scenario-rec",
		Machines: scenarioMachines(),
		CPU:      []workload.LoadSpec{{Kind: "scenario", Scenario: scenario}},
		Seed:     11,
		Warmup:   300,
	}
	svc, err := predict.NewServiceFromSpec(&spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := driveReplay(t, svc, 12)
	end := svc.Now()

	// Record each machine's load process over the full horizon the run
	// touched, into the versioned trace format.
	sc, _ := workload.Lookup(scenario)
	dir := t.TempDir()
	cpu := make([]workload.LoadSpec, len(spec.Machines))
	for i := range spec.Machines {
		h, vals, err := workload.CaptureTrace(svc.Env().CPULoad(i), scenario, sc.Hash(), spec.Seed, i, 0, end)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("cpu%d.trace", i))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.WriteTrace(f, h, vals); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		cpu[i] = workload.LoadSpec{Kind: "trace", Path: path}
	}

	replay := spec
	replay.CPU = cpu
	svc2, err := predict.NewServiceFromSpec(&replay, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := driveReplay(t, svc2, 12)

	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("prediction %d diverged under replay:\n  live:   %s\n  replay: %s", i, want[i], got[i])
		}
	}
}

// TestScenarioSpecValidation covers the new LoadSpec kinds' error paths.
func TestScenarioSpecValidation(t *testing.T) {
	base := func() predict.PlatformSpec {
		return predict.PlatformSpec{
			Name:     "t",
			Machines: scenarioMachines(),
			Seed:     3,
		}
	}
	t.Run("valid scenario kinds", func(t *testing.T) {
		for _, name := range workload.Names() {
			spec := base()
			spec.CPU = []workload.LoadSpec{{Kind: "scenario", Scenario: name}}
			if err := spec.Validate(); err != nil {
				t.Errorf("scenario %q rejected: %v", name, err)
			}
		}
	})
	t.Run("scenario net kind", func(t *testing.T) {
		spec := base()
		spec.Net = &workload.LoadSpec{Kind: "scenario", Scenario: "diurnal-web"}
		if err := spec.Validate(); err != nil {
			t.Fatalf("scenario net rejected: %v", err)
		}
		// quiet-baseline ships no net component: using it as a net spec
		// must fail rather than silently running contention-free.
		spec.Net = &workload.LoadSpec{Kind: "scenario", Scenario: "quiet-baseline"}
		if err := spec.Validate(); err == nil {
			t.Fatal("netless scenario accepted as a net spec")
		}
	})
	t.Run("rejections", func(t *testing.T) {
		cases := []workload.LoadSpec{
			{Kind: "scenario"}, // missing name
			{Kind: "scenario", Scenario: "no-such-scenario"}, // unknown
			{Kind: "scenario", Scenario: "diurnal-web", Machine: -1},
			{Kind: "trace"}, // missing path
			{Kind: "trace", Path: "/does/not/exist"},
		}
		for _, ls := range cases {
			spec := base()
			spec.CPU = []workload.LoadSpec{ls}
			if err := spec.Validate(); err == nil {
				t.Errorf("load spec %+v accepted", ls)
			}
		}
	})
	t.Run("trace kind round trip", func(t *testing.T) {
		sc, _ := workload.Lookup("quiet-baseline")
		p, err := sc.Machine(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		h, vals, err := workload.CaptureTrace(p, sc.Name, sc.Hash(), 5, 0, 0, 900)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "m0.trace")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.WriteTrace(f, h, vals); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		spec := base()
		spec.CPU = []workload.LoadSpec{{Kind: "trace", Path: path}}
		if err := spec.Validate(); err != nil {
			t.Fatalf("trace spec rejected: %v", err)
		}
	})
}

// TestScenarioBroadcastSpreadsEntries asserts a single broadcast scenario
// spec drives each machine with its own component entry (distinct
// processes), not four copies of entry 0.
func TestScenarioBroadcastSpreadsEntries(t *testing.T) {
	spec := predict.PlatformSpec{
		Name:     "spread",
		Machines: scenarioMachines(),
		CPU:      []workload.LoadSpec{{Kind: "scenario", Scenario: "flash-crowd"}},
		Seed:     21,
	}
	svc, err := predict.NewServiceFromSpec(&spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// flash-crowd's four entries have different onsets (240/420/600/330):
	// at t=300 only machine 0's crowd has landed.
	env := svc.Env()
	v0, v1 := env.RawCPUAvail(0, 300), env.RawCPUAvail(1, 300)
	if v0 >= 0.4 {
		t.Fatalf("machine 0 should be under crowd load at t=300, got availability %g", v0)
	}
	if v1 < 0.4 {
		t.Fatalf("machine 1's crowd starts at t=420; availability %g at t=300 looks loaded", v1)
	}
}
