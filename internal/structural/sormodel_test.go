package structural

import (
	"fmt"
	"math"
	"testing"

	"prodpred/internal/cluster"
	"prodpred/internal/load"
	"prodpred/internal/simenv"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
)

// platform1Config builds a capacity-balanced SOR config on Platform 1.
func platform1Config(t *testing.T, n, iters int) *SORConfig {
	t.Helper()
	plat := cluster.Platform1()
	weights := make([]float64, plat.Size())
	machines := make([]cluster.Machine, plat.Size())
	for i := range weights {
		machines[i] = plat.Machine(i)
		weights[i] = machines[i].ElemRate
	}
	pt, err := sor.NewWeightedPartition(n, weights)
	if err != nil {
		t.Fatal(err)
	}
	link, err := plat.Link(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &SORConfig{
		N:           n,
		Iterations:  iters,
		Partition:   pt,
		Machines:    machines,
		MachineIdx:  sor.IdentityMapping(plat.Size()),
		Link:        link,
		MaxStrategy: stochastic.LargestMean,
	}
}

func TestSORConfigValidation(t *testing.T) {
	good := platform1Config(t, 100, 10)
	if _, err := good.Build(); err != nil {
		t.Fatalf("valid config failed: %v", err)
	}
	bad := *good
	bad.Partition = nil
	if _, err := bad.Build(); err == nil {
		t.Error("nil partition should fail")
	}
	bad = *good
	bad.N = 99
	if _, err := bad.Build(); err == nil {
		t.Error("N mismatch should fail")
	}
	bad = *good
	bad.Iterations = 0
	if _, err := bad.Build(); err == nil {
		t.Error("zero iterations should fail")
	}
	bad = *good
	bad.Machines = bad.Machines[:2]
	if _, err := bad.Build(); err == nil {
		t.Error("machine count mismatch should fail")
	}
	bad = *good
	bad.MachineIdx = []int{0}
	if _, err := bad.Build(); err == nil {
		t.Error("MachineIdx mismatch should fail")
	}
	bad = *good
	bad.Link = cluster.Link{}
	if _, err := bad.Build(); err == nil {
		t.Error("invalid link should fail")
	}
	bad = *good
	bad.Machines = append([]cluster.Machine(nil), good.Machines...)
	bad.Machines[0] = cluster.Machine{Name: "broken"}
	if _, err := bad.Build(); err == nil {
		t.Error("invalid machine should fail")
	}
}

func TestDedicatedPredictionWithinTwoPercent(t *testing.T) {
	// §2.2.1: "In a dedicated setting, the structural model defined in
	// this section predicted overall application execution times to within
	// 2% of actual execution time."
	for _, n := range []int{400, 1000} {
		cfg := platform1Config(t, n, 20)
		pred, err := cfg.Predict(cfg.DedicatedParams())
		if err != nil {
			t.Fatal(err)
		}
		env, err := simenv.NewDedicated(cluster.Platform1())
		if err != nil {
			t.Fatal(err)
		}
		sb, err := sor.NewSimBackend(env, cfg.Partition, cfg.MachineIdx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sb.Run(cfg.Iterations, 0)
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(pred.Mean-res.ExecTime) / res.ExecTime
		if relErr > 0.02 {
			t.Errorf("n=%d: predicted %.4fs actual %.4fs (%.1f%% error)",
				n, pred.Mean, res.ExecTime, relErr*100)
		}
		// Dedicated parameters are points, so the prediction is a point.
		if !pred.IsPoint() {
			t.Errorf("n=%d: dedicated prediction has spread %g", n, pred.Spread)
		}
	}
}

func TestStochasticPredictionCoversProductionRuns(t *testing.T) {
	// With load 0.48 ± 0.05 on the slowest machine (the paper's §3.1
	// regime), actual production runtimes should land inside the
	// stochastic interval.
	n := 800
	cfg := platform1Config(t, n, 20)
	params := cfg.DedicatedParams()
	params[LoadParam(0)] = stochastic.New(0.48, 0.05)
	params[LoadParam(1)] = stochastic.New(0.48, 0.05)
	pred, err := cfg.Predict(params)
	if err != nil {
		t.Fatal(err)
	}
	if pred.IsPoint() {
		t.Fatal("production prediction should carry spread")
	}

	plat := cluster.Platform1()
	ded := load.Dedicated()
	captured := 0
	const runs = 8
	for seed := int64(0); seed < runs; seed++ {
		proc0, err := load.Platform1CenterMode(100 + seed)
		if err != nil {
			t.Fatal(err)
		}
		proc1, err := load.Platform1CenterMode(200 + seed)
		if err != nil {
			t.Fatal(err)
		}
		env, err := simenv.New(plat, []load.Process{proc0, proc1, ded, ded}, ded)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := sor.NewSimBackend(env, cfg.Partition, cfg.MachineIdx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sb.Run(cfg.Iterations, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Contains(res.ExecTime) {
			captured++
		} else if pred.RelativeErrorOutside(res.ExecTime) > 0.15 {
			t.Errorf("seed %d: runtime %.3f far outside %v", seed, res.ExecTime, pred)
		}
	}
	if captured < runs*3/4 {
		t.Errorf("captured %d/%d runs in %v", captured, runs, pred)
	}
}

func TestPredictionScalesWithProblemSize(t *testing.T) {
	small := platform1Config(t, 500, 10)
	big := platform1Config(t, 1000, 10)
	ps, err := small.Predict(small.DedicatedParams())
	if err != nil {
		t.Fatal(err)
	}
	pb, err := big.Predict(big.DedicatedParams())
	if err != nil {
		t.Fatal(err)
	}
	// Compute scales ~4x with N^2; comm scales ~2x: between 3x and 4.2x.
	ratio := pb.Mean / ps.Mean
	if ratio < 3 || ratio > 4.2 {
		t.Errorf("scaling ratio=%g", ratio)
	}
}

func TestLoadSpreadWidensPrediction(t *testing.T) {
	cfg := platform1Config(t, 600, 10)
	narrow := cfg.DedicatedParams()
	narrow[LoadParam(0)] = stochastic.New(0.5, 0.02)
	wide := cfg.DedicatedParams()
	wide[LoadParam(0)] = stochastic.New(0.5, 0.2)
	vn, err := cfg.Predict(narrow)
	if err != nil {
		t.Fatal(err)
	}
	vw, err := cfg.Predict(wide)
	if err != nil {
		t.Fatal(err)
	}
	if vw.Spread <= vn.Spread {
		t.Errorf("wide load spread %g should widen prediction (narrow %g)", vw.Spread, vn.Spread)
	}
	if math.Abs(vw.Mean-vn.Mean) > 1e-9 {
		t.Errorf("means should agree: %g vs %g", vw.Mean, vn.Mean)
	}
}

func TestCommComponentZeroForSingleStrip(t *testing.T) {
	pt, err := sor.NewEqualPartition(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &SORConfig{
		N: 50, Iterations: 5, Partition: pt,
		Machines:    []cluster.Machine{cluster.Sparc5("solo")},
		Link:        cluster.Ethernet10Mbit(),
		MaxStrategy: stochastic.LargestMean,
	}
	comm := cfg.CommComponent(0)
	v, err := comm.Eval(cfg.DedicatedParams())
	if err != nil {
		t.Fatal(err)
	}
	if v != stochastic.Point(0) {
		t.Errorf("single-strip comm=%v want 0", v)
	}
}

func TestSameMachineCommIsFree(t *testing.T) {
	pt, err := sor.NewEqualPartition(50, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &SORConfig{
		N: 50, Iterations: 5, Partition: pt,
		Machines:    []cluster.Machine{cluster.Sparc5("m"), cluster.Sparc5("m")},
		MachineIdx:  []int{0, 0},
		Link:        cluster.Ethernet10Mbit(),
		MaxStrategy: stochastic.LargestMean,
	}
	v, err := cfg.CommComponent(0).Eval(cfg.DedicatedParams())
	if err != nil {
		t.Fatal(err)
	}
	if v.Mean != 0 {
		t.Errorf("same-machine comm=%v want 0", v)
	}
}

func TestMissingLoadParamFails(t *testing.T) {
	cfg := platform1Config(t, 100, 5)
	params := cfg.DedicatedParams()
	delete(params, LoadParam(2))
	if _, err := cfg.Predict(params); err == nil {
		t.Error("missing load parameter should fail")
	}
	delete(params, BWAvailParam)
	if _, err := cfg.Predict(params); err == nil {
		t.Error("missing bwavail should fail")
	}
}

func TestMaxStrategyAffectsPrediction(t *testing.T) {
	cfg := platform1Config(t, 600, 10)
	params := cfg.DedicatedParams()
	// Two loaded machines with different variances: strategy choice
	// matters.
	params[LoadParam(0)] = stochastic.New(0.5, 0.02)
	params[LoadParam(1)] = stochastic.New(0.55, 0.25)
	mean := *cfg
	mean.MaxStrategy = stochastic.LargestMean
	mag := *cfg
	mag.MaxStrategy = stochastic.LargestMagnitude
	vMean, err := mean.Predict(params)
	if err != nil {
		t.Fatal(err)
	}
	vMag, err := mag.Predict(params)
	if err != nil {
		t.Fatal(err)
	}
	if vMean == vMag {
		t.Error("strategies should produce different predictions here")
	}
}

// TestLoadParamNames holds the fmt-free LoadParam to the Sprintf form it
// replaced.
func TestLoadParamNames(t *testing.T) {
	for _, p := range []int{-1, -1024, math.MinInt64, math.MaxInt64} {
		if got, want := LoadParam(p), fmt.Sprintf("load[%d]", p); got != want {
			t.Errorf("LoadParam(%d) = %q, want %q", p, got, want)
		}
	}
	for p := 0; p < 1024; p++ {
		if got, want := LoadParam(p), fmt.Sprintf("load[%d]", p); got != want {
			t.Fatalf("LoadParam(%d) = %q, want %q", p, got, want)
		}
	}
}
