package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"prodpred/internal/stats"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

// checkDistribution runs the generic contract checks shared by every
// distribution: CDF monotone in [0,1], PDF non-negative, quantile inverts
// CDF, and sample moments approach analytic moments.
func checkDistribution(t *testing.T, name string, d Distribution, probeLo, probeHi float64) {
	t.Helper()
	// CDF monotone and bounded.
	prev := -1.0
	for i := 0; i <= 100; i++ {
		x := probeLo + (probeHi-probeLo)*float64(i)/100
		c := d.CDF(x)
		if c < prev-1e-12 || c < 0 || c > 1 {
			t.Fatalf("%s: CDF(%g)=%g not monotone in [0,1]", name, x, c)
		}
		prev = c
		if d.PDF(x) < 0 {
			t.Fatalf("%s: PDF(%g)=%g negative", name, x, d.PDF(x))
		}
	}
	// Quantile inverts CDF.
	for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		x := d.Quantile(p)
		if got := d.CDF(x); !almostEqual(got, p, 1e-6) {
			t.Errorf("%s: CDF(Quantile(%g))=%g", name, p, got)
		}
	}
	// Sample moments (skip infinite-moment distributions).
	if math.IsInf(d.Mean(), 0) || math.IsInf(d.Variance(), 0) {
		return
	}
	rng := rand.New(rand.NewSource(99))
	xs := SampleN(d, rng, 60000)
	m := stats.Mean(xs)
	sd := stats.StdDev(xs)
	wantSD := math.Sqrt(d.Variance())
	if !almostEqual(m, d.Mean(), 0.05*(math.Abs(d.Mean())+wantSD)+1e-9) {
		t.Errorf("%s: sample mean %g vs analytic %g", name, m, d.Mean())
	}
	if !almostEqual(sd, wantSD, 0.08*wantSD+1e-9) {
		t.Errorf("%s: sample std %g vs analytic %g", name, sd, wantSD)
	}
}

func TestNormalContract(t *testing.T) {
	n, err := NewNormal(12, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	checkDistribution(t, "normal", n, 9, 15)
	if n.Mean() != 12 || !almostEqual(n.Variance(), 0.36, 1e-12) {
		t.Errorf("moments: %g %g", n.Mean(), n.Variance())
	}
	// Symmetry and mode.
	if !almostEqual(n.PDF(11), n.PDF(13), 1e-15) {
		t.Error("normal PDF not symmetric")
	}
	if n.CDF(12) != 0.5 {
		t.Errorf("CDF at mean = %g", n.CDF(12))
	}
	if s := n.String(); s != "12 ± 1.2" {
		t.Errorf("String()=%q", s)
	}
}

func TestNewNormalValidation(t *testing.T) {
	for _, c := range []struct{ mu, sigma float64 }{
		{0, 0}, {0, -1}, {math.NaN(), 1}, {math.Inf(1), 1}, {0, math.Inf(1)},
	} {
		if _, err := NewNormal(c.mu, c.sigma); err == nil {
			t.Errorf("NewNormal(%g,%g) should fail", c.mu, c.sigma)
		}
	}
}

func TestFitNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := Normal{Mu: 5.25, Sigma: 0.4}
	xs := SampleN(base, rng, 5000)
	fit, err := FitNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Mu, 5.25, 0.05) || !almostEqual(fit.Sigma, 0.4, 0.03) {
		t.Errorf("fit=%+v", fit)
	}
	if _, err := FitNormal([]float64{1}); err == nil {
		t.Error("FitNormal on 1 point should fail")
	}
	if _, err := FitNormal([]float64{2, 2, 2}); err == nil {
		t.Error("FitNormal on degenerate sample should fail")
	}
}

func TestLogNormalContract(t *testing.T) {
	l, err := NewLogNormal(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkDistribution(t, "lognormal", l, 0.01, 15)
	if l.PDF(-1) != 0 || l.PDF(0) != 0 || l.CDF(-1) != 0 {
		t.Error("lognormal support should be positive reals")
	}
	// Lognormal is right-skewed: mean > median.
	if l.Mean() <= l.Quantile(0.5) {
		t.Errorf("mean %g <= median %g", l.Mean(), l.Quantile(0.5))
	}
}

func TestLogNormalFromMoments(t *testing.T) {
	l, err := LogNormalFromMoments(5.25, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(l.Mean(), 5.25, 1e-9) {
		t.Errorf("mean=%g", l.Mean())
	}
	if sd := math.Sqrt(l.Variance()); !almostEqual(sd, 0.8, 1e-9) {
		t.Errorf("std=%g", sd)
	}
	if _, err := LogNormalFromMoments(-1, 1); err == nil {
		t.Error("negative mean should fail")
	}
	if _, err := LogNormalFromMoments(1, 0); err == nil {
		t.Error("zero std should fail")
	}
	if _, err := NewLogNormal(0, -1); err == nil {
		t.Error("negative sigmaLog should fail")
	}
}

func TestParetoContract(t *testing.T) {
	p, err := NewPareto(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkDistribution(t, "pareto", p, 1, 30)
	if !almostEqual(p.Mean(), 1.5, 1e-12) {
		t.Errorf("mean=%g", p.Mean())
	}
	if !almostEqual(p.Variance(), 0.75, 1e-12) {
		t.Errorf("variance=%g", p.Variance())
	}
	// Infinite-moment regimes.
	heavy := Pareto{Xm: 1, Alpha: 1}
	if !math.IsInf(heavy.Mean(), 1) {
		t.Error("alpha<=1 mean should be Inf")
	}
	mid := Pareto{Xm: 1, Alpha: 1.5}
	if !math.IsInf(mid.Variance(), 1) {
		t.Error("alpha<=2 variance should be Inf")
	}
	if p.PDF(0.5) != 0 || p.CDF(0.5) != 0 {
		t.Error("below xm should be zero")
	}
	if p.Quantile(0) != 1 || !math.IsInf(p.Quantile(1), 1) {
		t.Error("quantile edges wrong")
	}
	if _, err := NewPareto(0, 1); err == nil {
		t.Error("zero xm should fail")
	}
	if _, err := NewPareto(1, 0); err == nil {
		t.Error("zero alpha should fail")
	}
}

func TestParetoSampleNeverBelowXm(t *testing.T) {
	p := Pareto{Xm: 2, Alpha: 0.8}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 10000; i++ {
		if x := p.Sample(rng); x < 2 || math.IsInf(x, 0) || math.IsNaN(x) {
			t.Fatalf("sample %d = %g", i, x)
		}
	}
}

func TestSampleNLength(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := SampleN(Normal{Mu: 0, Sigma: 1}, rng, 17)
	if len(xs) != 17 {
		t.Errorf("len=%d", len(xs))
	}
	if len(SampleN(Normal{Mu: 0, Sigma: 1}, rng, 0)) != 0 {
		t.Error("n=0 should give empty slice")
	}
}

func TestSamplingIsDeterministic(t *testing.T) {
	a := SampleN(Normal{Mu: 3, Sigma: 1}, rand.New(rand.NewSource(7)), 10)
	b := SampleN(Normal{Mu: 3, Sigma: 1}, rand.New(rand.NewSource(7)), 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

// Property: for any valid normal, quantile/CDF round-trip across the body of
// the distribution.
func TestNormalQuantileRoundTripProperty(t *testing.T) {
	f := func(muRaw, sigmaRaw, pRaw float64) bool {
		if math.IsNaN(muRaw) || math.IsInf(muRaw, 0) {
			return true
		}
		mu := math.Mod(muRaw, 1e6)
		sigma := 0.01 + math.Abs(math.Mod(sigmaRaw, 100))
		p := 0.001 + 0.998*math.Abs(math.Mod(pRaw, 1))
		n := Normal{Mu: mu, Sigma: sigma}
		x := n.Quantile(p)
		return almostEqual(n.CDF(x), p, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
