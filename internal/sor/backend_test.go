package sor

import (
	"testing"

	"prodpred/internal/cluster"
	"prodpred/internal/load"
	"prodpred/internal/simenv"
)

func laplaceProblem(t *testing.T, n int) *Grid {
	t.Helper()
	g, err := NewGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	g.SetBoundary(func(x, y float64) float64 { return x*x - y*y })
	return g
}

func TestLocalBackendMatchesSequential(t *testing.T) {
	n := 65
	seq := laplaceProblem(t, n)
	for it := 0; it < 50; it++ {
		seq.SweepPhase(Red, 1, n-1, DefaultOmega)
		seq.SweepPhase(Black, 1, n-1, DefaultOmega)
	}
	par := laplaceProblem(t, n)
	pt, err := NewEqualPartition(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLocalBackend(pt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(par, DefaultOmega, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 50 {
		t.Errorf("iterations=%d", res.Iterations)
	}
	for i := range seq.U {
		if seq.U[i] != par.U[i] {
			t.Fatalf("parallel differs from sequential at %d: %g vs %g", i, seq.U[i], par.U[i])
		}
	}
}

func TestLocalBackendConvergesEarly(t *testing.T) {
	g := laplaceProblem(t, 33)
	pt, _ := NewEqualPartition(33, 2)
	b, _ := NewLocalBackend(pt)
	res, err := b.Run(g, DefaultOmega, 100000, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 100000 {
		t.Error("did not converge")
	}
	if res.Residual >= 1e-10 {
		t.Errorf("residual=%g", res.Residual)
	}
	if e := g.MaxErrorAgainst(func(x, y float64) float64 { return x*x - y*y }); e > 1e-7 {
		t.Errorf("solution error=%g", e)
	}
}

func TestLocalBackendValidation(t *testing.T) {
	pt, _ := NewEqualPartition(10, 2)
	if _, err := NewLocalBackend(nil); err == nil {
		t.Error("nil partition should fail")
	}
	bad, _ := NewEqualPartition(10, 2)
	bad.Rows[0] = 0
	if _, err := NewLocalBackend(bad); err == nil {
		t.Error("invalid partition should fail")
	}
	b, _ := NewLocalBackend(pt)
	g, _ := NewGrid(12)
	if _, err := b.Run(g, DefaultOmega, 10, 0); err == nil {
		t.Error("grid/partition mismatch should fail")
	}
	g10, _ := NewGrid(10)
	if _, err := b.Run(nil, DefaultOmega, 10, 0); err == nil {
		t.Error("nil grid should fail")
	}
	if _, err := b.Run(g10, 2.5, 10, 0); err == nil {
		t.Error("bad omega should fail")
	}
	if _, err := b.Run(g10, DefaultOmega, 0, 0); err == nil {
		t.Error("zero iterations should fail")
	}
}

func TestBenchmarkElement(t *testing.T) {
	bm, err := BenchmarkElement(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bm <= 0 || bm > 1e-3 {
		t.Errorf("per-element time=%g s", bm)
	}
	if _, err := BenchmarkElement(2, 3); err == nil {
		t.Error("tiny grid should fail")
	}
	if _, err := BenchmarkElement(64, 0); err == nil {
		t.Error("zero sweeps should fail")
	}
}

func dedicatedSimEnv(t *testing.T) *simenv.Env {
	t.Helper()
	env, err := simenv.NewDedicated(cluster.Platform1())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestSimBackendValidation(t *testing.T) {
	env := dedicatedSimEnv(t)
	pt, _ := NewEqualPartition(66, 4)
	if _, err := NewSimBackend(nil, pt, IdentityMapping(4)); err == nil {
		t.Error("nil env should fail")
	}
	if _, err := NewSimBackend(env, nil, nil); err == nil {
		t.Error("nil partition should fail")
	}
	if _, err := NewSimBackend(env, pt, IdentityMapping(3)); err == nil {
		t.Error("mapping length mismatch should fail")
	}
	if _, err := NewSimBackend(env, pt, []int{0, 1, 2, 9}); err == nil {
		t.Error("bad machine index should fail")
	}
	bad, _ := NewEqualPartition(66, 4)
	bad.Rows[0] = 0
	if _, err := NewSimBackend(env, bad, IdentityMapping(4)); err == nil {
		t.Error("invalid partition should fail")
	}
	b, err := NewSimBackend(env, pt, IdentityMapping(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(0, 0); err == nil {
		t.Error("zero iterations should fail")
	}
}

func TestSimBackendDedicatedTimingSanity(t *testing.T) {
	// On a dedicated platform the slowest machine dominates: with equal
	// strips on Platform 1, the Sparc-2 at 0.5e6 elem/s and strip of
	// (n-2)/4 rows bounds each compute phase.
	n := 402
	env := dedicatedSimEnv(t)
	pt, _ := NewEqualPartition(n, 4)
	sb, _ := NewSimBackend(env, pt, IdentityMapping(4))
	iters := 10
	res, err := sb.Run(iters, 0)
	if err != nil {
		t.Fatal(err)
	}
	stripElems := float64(pt.Elems(0)) // 100 rows * 400 cols
	perPhase := stripElems / 2 / 0.5e6 // sparc2 rate
	wantCompute := perPhase * 2 * float64(iters)
	if res.Phases.RedComp+res.Phases.BlackComp < wantCompute*0.99 {
		t.Errorf("compute time %g want >= %g", res.Phases.RedComp+res.Phases.BlackComp, wantCompute*0.99)
	}
	if res.ExecTime < wantCompute {
		t.Errorf("ExecTime %g below compute bound %g", res.ExecTime, wantCompute)
	}
}

func TestSimBackendPhasesMatchExecWhenBalanced(t *testing.T) {
	// When strips are weighted by machine capacity (footnote 2 of the
	// paper), the per-phase Max decomposition should reconstruct the
	// end-to-end time closely — this is exactly the structural model's
	// assumption.
	n := 402
	env := dedicatedSimEnv(t)
	pt, err := NewWeightedPartition(n, []float64{1, 1, 2.5, 3.5})
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := NewSimBackend(env, pt, IdentityMapping(4))
	res, err := sb.Run(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total := res.Phases.Total(); total < res.ExecTime*0.9 || total > res.ExecTime*1.15 {
		t.Errorf("phase total %g vs exec %g", total, res.ExecTime)
	}
}

func TestSimBackendSkewBoundedOnDedicated(t *testing.T) {
	// With equal strips and equal machines there is almost no skew.
	n := 66
	machines := []cluster.Machine{
		cluster.Sparc5("a"), cluster.Sparc5("b"), cluster.Sparc5("c"), cluster.Sparc5("d"),
	}
	plat, err := cluster.NewPlatform("uniform", machines, cluster.Ethernet10Mbit())
	if err != nil {
		t.Fatal(err)
	}
	env, err := simenv.NewDedicated(plat)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := NewEqualPartition(n, 4)
	sb, _ := NewSimBackend(env, pt, IdentityMapping(4))
	res, err := sb.Run(20, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Interior strips pay two transfers, edge strips one, so a small skew
	// of order a couple of ghost-row transfer times is expected; it must
	// not accumulate beyond ~P transfer+latency units.
	ghostTime := pt.GhostRowBytes()/1.25e6 + 1e-3
	if res.MaxSkew > 4*2*ghostTime {
		t.Errorf("MaxSkew=%g want <= %g", res.MaxSkew, 4*2*ghostTime)
	}
}

func TestSimBackendSkewGrowsUnderUnevenLoad(t *testing.T) {
	// Loading one machine heavily must increase both skew and exec time.
	n := 66
	plat := cluster.Platform1()
	ded := load.Dedicated()
	slow := load.NewConstant(0.2)
	envLoaded, err := simenv.New(plat, []load.Process{slow, ded, ded, ded}, ded)
	if err != nil {
		t.Fatal(err)
	}
	envClean := dedicatedSimEnv(t)
	pt, _ := NewEqualPartition(n, 4)
	run := func(env *simenv.Env) SimResult {
		sb, err := NewSimBackend(env, pt, IdentityMapping(4))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sb.Run(15, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(envClean)
	loaded := run(envLoaded)
	if loaded.ExecTime <= clean.ExecTime {
		t.Errorf("loaded exec %g should exceed clean %g", loaded.ExecTime, clean.ExecTime)
	}
}

func TestSimBackendSameMachineTransfersFree(t *testing.T) {
	// Mapping all strips to one machine removes network cost entirely.
	n := 42
	env := dedicatedSimEnv(t)
	pt, _ := NewEqualPartition(n, 4)
	sb, err := NewSimBackend(env, pt, []int{3, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sb.Run(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.RedComm != 0 || res.Phases.BlackComm != 0 {
		t.Errorf("comm should be free on one machine: %+v", res.Phases)
	}
}

func TestIdentityMapping(t *testing.T) {
	m := IdentityMapping(3)
	if len(m) != 3 || m[0] != 0 || m[2] != 2 {
		t.Errorf("IdentityMapping=%v", m)
	}
}
