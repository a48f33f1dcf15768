package stochastic

import (
	"math"
	"math/rand"
	"testing"

	"prodpred/internal/stats"
)

// The paper's §2.3.3 worked example: A = 4±0.5, B = 3±2, C = 3±1. A has the
// largest mean; B has the largest value within its range.
func paperMaxExample() (a, b, c Value) {
	return New(4, 0.5), New(3, 2), New(3, 1)
}

func TestMaxLargestMean(t *testing.T) {
	a, b, c := paperMaxExample()
	got, err := Max(LargestMean, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Errorf("LargestMean picked %v want %v", got, a)
	}
}

func TestMaxLargestMagnitude(t *testing.T) {
	a, b, c := paperMaxExample()
	got, err := Max(LargestMagnitude, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if got != b { // B's range tops out at 5 > A's 4.5
		t.Errorf("LargestMagnitude picked %v want %v", got, b)
	}
}

func TestMaxProbabilisticAgainstMonteCarlo(t *testing.T) {
	a, b, c := paperMaxExample()
	got, err := Max(Probabilistic, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	xs := make([]float64, 300000)
	for i := range xs {
		xs[i] = math.Max(a.Sample(rng), math.Max(b.Sample(rng), c.Sample(rng)))
	}
	mcMean := stats.Mean(xs)
	mcSpread := 2 * stats.StdDev(xs)
	// Clark's pairwise approximation: a few percent accuracy is expected.
	if math.Abs(got.Mean-mcMean) > 0.03*mcMean {
		t.Errorf("Clark mean %g vs MC %g", got.Mean, mcMean)
	}
	if math.Abs(got.Spread-mcSpread) > 0.12*mcSpread {
		t.Errorf("Clark spread %g vs MC %g", got.Spread, mcSpread)
	}
	// The probabilistic max mean must exceed the largest input mean: taking
	// a max over noisy values inflates the expectation.
	if got.Mean <= 4 {
		t.Errorf("probabilistic max mean %g should exceed 4", got.Mean)
	}
}

func TestMaxErrors(t *testing.T) {
	if _, err := Max(LargestMean); err == nil {
		t.Error("empty Max should fail")
	}
	if _, err := Max(MaxStrategy(42), Point(1)); err == nil {
		t.Error("unknown strategy should fail")
	}
	if _, err := Min(LargestMean); err == nil {
		t.Error("empty Min should fail")
	}
	if _, err := Min(MaxStrategy(42), Point(1)); err == nil {
		t.Error("unknown Min strategy should fail")
	}
}

func TestMaxSingleValue(t *testing.T) {
	v := New(3, 1)
	for _, s := range []MaxStrategy{LargestMean, LargestMagnitude, Probabilistic} {
		got, err := Max(s, v)
		if err != nil {
			t.Fatal(err)
		}
		if !got.ApproxEqual(v, 1e-12) {
			t.Errorf("strategy %d single Max=%v", s, got)
		}
	}
}

func TestMaxOfPointValuesIsExact(t *testing.T) {
	got, err := Max(Probabilistic, Point(3), Point(7), Point(5))
	if err != nil {
		t.Fatal(err)
	}
	if got != Point(7) {
		t.Errorf("Max of points=%v want 7", got)
	}
}

func TestMinStrategies(t *testing.T) {
	a, b, c := paperMaxExample() // 4±0.5, 3±2, 3±1
	got, err := Min(LargestMean, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if got != b { // first value with the smallest mean (3)
		t.Errorf("Min smallest-mean picked %v", got)
	}
	got, err = Min(LargestMagnitude, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if got != b { // B's range bottoms out at 1
		t.Errorf("Min smallest-magnitude picked %v", got)
	}
}

func TestMinProbabilisticAgainstMonteCarlo(t *testing.T) {
	a, b, c := paperMaxExample()
	got, err := Min(Probabilistic, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	xs := make([]float64, 300000)
	for i := range xs {
		xs[i] = math.Min(a.Sample(rng), math.Min(b.Sample(rng), c.Sample(rng)))
	}
	mcMean := stats.Mean(xs)
	if math.Abs(got.Mean-mcMean) > 0.03*math.Abs(mcMean) {
		t.Errorf("Clark min mean %g vs MC %g", got.Mean, mcMean)
	}
	if got.Mean >= 3 {
		t.Errorf("probabilistic min mean %g should be below 3", got.Mean)
	}
}

func TestClarkMaxTwoNormalsExactMean(t *testing.T) {
	// For two independent normals the Clark mean formula is exact:
	// E[max] = mu1*Phi(alpha) + mu2*Phi(-alpha) + theta*phi(alpha).
	a := New(0, 2) // sigma 1
	b := New(0, 2) // sigma 1
	got, err := Max(Probabilistic, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// E[max(X,Y)] for iid N(0,1) is theta*phi(0) = sqrt(2)/sqrt(2*pi) = 1/sqrt(pi).
	want := 1 / math.Sqrt(math.Pi)
	rng := rand.New(rand.NewSource(73))
	xs := make([]float64, 400000)
	for i := range xs {
		xs[i] = math.Max(rng.NormFloat64(), rng.NormFloat64())
	}
	mc := stats.Mean(xs)
	if math.Abs(want-mc) > 0.01 {
		t.Fatalf("analytic %g vs MC %g disagree; formula misremembered", want, mc)
	}
	if math.Abs(got.Mean-want) > 1e-9 {
		t.Errorf("Clark mean %g want %g", got.Mean, want)
	}
}

func TestProbabilisticMaxDominatesInputs(t *testing.T) {
	// E[max(X1..Xn)] >= max E[Xi]; spread stays finite and non-negative.
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(4)
		vs := make([]Value, n)
		maxMean := math.Inf(-1)
		for i := range vs {
			vs[i] = New(rng.Float64()*10-5, rng.Float64()*3)
			if vs[i].Mean > maxMean {
				maxMean = vs[i].Mean
			}
		}
		got, err := Max(Probabilistic, vs...)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mean < maxMean-1e-9 {
			t.Fatalf("trial %d: max mean %g below input max %g (vs=%v)", trial, got.Mean, maxMean, vs)
		}
		if got.Spread < 0 || math.IsNaN(got.Spread) {
			t.Fatalf("trial %d: bad spread %g", trial, got.Spread)
		}
	}
}
