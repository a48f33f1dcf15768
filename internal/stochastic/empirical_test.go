package stochastic

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"prodpred/internal/stats"
)

func normSample(rng *rand.Rand, mean, sigma float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mean + sigma*rng.NormFloat64()
	}
	return xs
}

func TestNewEmpiricalValidation(t *testing.T) {
	if _, err := NewEmpirical(nil); err == nil {
		t.Error("empty sample should fail")
	}
	if _, err := NewEmpirical([]float64{1}); err == nil {
		t.Error("single sample should fail")
	}
	e, err := NewEmpirical([]float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.N() != 3 || e.Mean() != 2 {
		t.Errorf("N=%d mean=%g", e.N(), e.Mean())
	}
}

func TestEmpiricalDoesNotAliasInput(t *testing.T) {
	xs := []float64{1, 2, 3}
	e, _ := NewEmpirical(xs)
	xs[0] = 100
	if e.Mean() != 2 {
		t.Error("empirical aliased caller slice")
	}
}

func TestEmpiricalSummaryMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e, err := NewEmpirical(normSample(rng, 12, 0.6, 20000))
	if err != nil {
		t.Fatal(err)
	}
	s := e.Summary()
	if !almostEqual(s.Mean, 12, 0.02) || !almostEqual(s.Spread, 1.2, 0.03) {
		t.Errorf("summary=%v", s)
	}
	if !almostEqual(e.Sigma(), 0.6, 0.02) {
		t.Errorf("sigma=%g", e.Sigma())
	}
}

func TestEmpiricalQuantileAndInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e, _ := NewEmpirical(normSample(rng, 0, 1, 50000))
	q, err := e.Quantile(0.975)
	if err != nil || math.Abs(q-1.96) > 0.05 {
		t.Errorf("q975=%g err=%v", q, err)
	}
	lo, hi, err := e.Interval(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo+1.96) > 0.05 || math.Abs(hi-1.96) > 0.05 {
		t.Errorf("interval=[%g,%g]", lo, hi)
	}
	if got := e.Coverage(lo, hi); math.Abs(got-0.95) > 0.01 {
		t.Errorf("coverage=%g", got)
	}
	if _, _, err := e.Interval(0); err == nil {
		t.Error("p=0 should fail")
	}
	if _, _, err := e.Interval(1.1); err == nil {
		t.Error("p>1 should fail")
	}
}

// TestEmpiricalQuantileMatchesStats: reading the sample sorted at
// construction gives stats.Quantile's answer, and its error, on every level.
func TestEmpiricalQuantileMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		xs := normSample(rng, 5, 2, 2+rng.Intn(200))
		for i := range xs {
			if rng.Intn(8) == 0 {
				xs[i] = xs[rng.Intn(len(xs))] // ties
			}
		}
		e, err := NewEmpirical(xs)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []float64{0, 1, 0.5, 0.025, 0.975, rng.Float64(), -0.1, 1.1, math.NaN()} {
			got, gotErr := e.Quantile(q)
			want, wantErr := stats.Quantile(xs, q)
			if got != want || !errors.Is(gotErr, wantErr) {
				t.Fatalf("n=%d q=%g: Quantile = %g, %v; stats.Quantile = %g, %v", len(xs), q, got, gotErr, want, wantErr)
			}
		}
	}
}

func TestEmpiricalAddMatchesUnrelatedRule(t *testing.T) {
	// Ground-truth check of Table 2: empirical combination of independent
	// normals agrees with the closed-form unrelated rule.
	rng := rand.New(rand.NewSource(3))
	a, _ := NewEmpirical(normSample(rng, 8, 1, 20000))    // 8 ± 2
	b, _ := NewEmpirical(normSample(rng, 5, 0.75, 20000)) // 5 ± 1.5
	sum, err := a.Add(b, rng, 100000)
	if err != nil {
		t.Fatal(err)
	}
	rule := a.Summary().AddUnrelated(b.Summary())
	if !sum.Summary().ApproxEqual(rule, 0.05) {
		t.Errorf("empirical %v vs rule %v", sum.Summary(), rule)
	}
}

func TestEmpiricalMulMatchesUnrelatedRule(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, _ := NewEmpirical(normSample(rng, 10, 0.4, 20000))
	b, _ := NewEmpirical(normSample(rng, 4, 0.2, 20000))
	prod, err := a.Mul(b, rng, 100000)
	if err != nil {
		t.Fatal(err)
	}
	rule := a.Summary().MulUnrelated(b.Summary())
	if math.Abs(prod.Mean()-rule.Mean)/rule.Mean > 0.01 {
		t.Errorf("mean %g vs %g", prod.Mean(), rule.Mean)
	}
	if math.Abs(2*2*prod.Sigma()-2*rule.Spread)/(2*rule.Spread) > 0.55 {
		// loose: first-order rule vs exact; must be same order of magnitude
		t.Errorf("spread %g vs %g", 2*prod.Sigma(), rule.Spread)
	}
}

func TestEmpiricalSubAndDiv(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, _ := NewEmpirical(normSample(rng, 10, 0.5, 10000))
	b, _ := NewEmpirical(normSample(rng, 4, 0.2, 10000))
	diff, err := a.Sub(b, rng, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(diff.Mean(), 6, 0.05) {
		t.Errorf("diff mean=%g", diff.Mean())
	}
	quot, err := a.Div(b, rng, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(quot.Mean(), 2.5, 0.05) {
		t.Errorf("quot mean=%g", quot.Mean())
	}
	zeros, _ := NewEmpirical([]float64{0, 0, 0})
	if _, err := a.Div(zeros, rng, 100); err == nil {
		t.Error("division by all-zero sample should fail")
	}
	// A divisor sample containing some zeros still works (rejection).
	mixed, _ := NewEmpirical([]float64{0, 2, 2, 2})
	q2, err := a.Div(mixed, rng, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(q2.Mean(), 5, 0.2) {
		t.Errorf("rejected-zero quotient mean=%g", q2.Mean())
	}
}

func TestEmpiricalCombineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, _ := NewEmpirical([]float64{1, 2})
	if _, err := a.Add(a, rng, 1); err == nil {
		t.Error("n<2 should fail")
	}
}

func TestEmpiricalString(t *testing.T) {
	e, _ := NewEmpirical([]float64{1, 2, 3})
	s := e.String()
	if s == "" || !almostEqual(e.Mean(), 2, 1e-12) {
		t.Errorf("String=%q", s)
	}
}

func TestEmpiricalPreservesLongTailWhereSummaryCannot(t *testing.T) {
	// The motivating case: a long-tailed sample. The normal summary's
	// 2-sigma interval misses tail mass that the empirical interval
	// captures by construction.
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()) // lognormal(0,1): heavy right tail
	}
	e, _ := NewEmpirical(xs)
	sum := e.Summary()
	normCov := e.Coverage(sum.Lo(), sum.Hi())
	lo, hi, err := e.Interval(0.95)
	if err != nil {
		t.Fatal(err)
	}
	empCov := e.Coverage(lo, hi)
	if !(empCov > 0.94 && empCov < 0.96) {
		t.Errorf("empirical interval coverage=%g", empCov)
	}
	// The normal summary over-covers or under-covers; it cannot hit 95%.
	if math.Abs(normCov-0.95) < 0.005 {
		t.Errorf("normal summary coverage suspiciously exact: %g", normCov)
	}
}
