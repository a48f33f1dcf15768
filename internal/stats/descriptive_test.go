package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negative", []float64{-1, 1}, 0},
		{"typical", []float64{1, 2, 3, 4, 5}, 3},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("%s: Mean=%g want %g", c.name, got, c.want)
		}
	}
}

func TestMeanKahanStability(t *testing.T) {
	// Many values near 1 plus a large offset; naive summation loses
	// precision here, Kahan does not.
	xs := make([]float64, 1e5)
	for i := range xs {
		xs[i] = 1e9 + 0.1
	}
	if got := Mean(xs); !almostEqual(got, 1e9+0.1, 1e-4) {
		t.Errorf("Mean lost precision: got %.10f", got)
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Known example: population variance 4, sample variance 32/7.
	if got := PopVariance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("PopVariance=%g want 4", got)
	}
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance=%g want %g", got, 32.0/7.0)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of singleton = %g want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance of empty = %g want 0", got)
	}
}

func TestStdDevMatchesVariance(t *testing.T) {
	xs := []float64{1.5, 2.5, 2.5, 2.75, 3.25, 4.75}
	if got, want := StdDev(xs), math.Sqrt(Variance(xs)); !almostEqual(got, want, 1e-15) {
		t.Errorf("StdDev=%g want %g", got, want)
	}
}

func TestMinMaxRange(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2, 6}
	lo, err := Min(xs)
	if err != nil || lo != -9 {
		t.Errorf("Min=%g,%v want -9", lo, err)
	}
	hi, err := Max(xs)
	if err != nil || hi != 6 {
		t.Errorf("Max=%g,%v want 6", hi, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err=%v want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err=%v want ErrEmpty", err)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m, err := Median([]float64{3, 1, 2}); err != nil || m != 2 {
		t.Errorf("Median odd=%g,%v want 2", m, err)
	}
	if m, err := Median([]float64{4, 1, 3, 2}); err != nil || m != 2.5 {
		t.Errorf("Median even=%g,%v want 2.5", m, err)
	}
	xs := []float64{1, 2, 3, 4, 5}
	if q, _ := Quantile(xs, 0); q != 1 {
		t.Errorf("Q0=%g want 1", q)
	}
	if q, _ := Quantile(xs, 1); q != 5 {
		t.Errorf("Q1=%g want 5", q)
	}
	if q, _ := Quantile(xs, 0.25); q != 2 {
		t.Errorf("Q25=%g want 2", q)
	}
	if q, _ := Quantile(xs, 0.1); !almostEqual(q, 1.4, 1e-12) {
		t.Errorf("Q10=%g want 1.4", q)
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Errorf("Quantile(nil) err=%v want ErrEmpty", err)
	}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Error("Quantile(-0.1) should error")
	}
	if _, err := Quantile(xs, 1.1); err == nil {
		t.Error("Quantile(1.1) should error")
	}
	if _, err := Quantile(xs, math.NaN()); err == nil {
		t.Error("Quantile(NaN) should error")
	}
	// Quantile must not mutate its input.
	xs2 := []float64{5, 1, 3}
	Quantile(xs2, 0.5)
	if xs2[0] != 5 || xs2[1] != 1 || xs2[2] != 3 {
		t.Errorf("Quantile mutated input: %v", xs2)
	}
}

func TestQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0001; q += 0.01 {
		qq := math.Min(q, 1)
		v, err := Quantile(xs, qq)
		if err != nil {
			t.Fatalf("Quantile(%g): %v", qq, err)
		}
		if v < prev-1e-12 {
			t.Fatalf("Quantile not monotone at q=%g: %g < %g", qq, v, prev)
		}
		prev = v
	}
}

func TestSkewnessSymmetric(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2}
	if got := Skewness(xs); !almostEqual(got, 0, 1e-12) {
		t.Errorf("Skewness symmetric=%g want 0", got)
	}
	// A right-skewed sample has positive skewness.
	right := []float64{1, 1, 1, 1, 2, 2, 3, 10}
	if got := Skewness(right); got <= 0 {
		t.Errorf("Skewness right-tailed=%g want > 0", got)
	}
	if got := Skewness([]float64{1, 2}); got != 0 {
		t.Errorf("Skewness n<3 = %g want 0", got)
	}
	if got := Skewness([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("Skewness degenerate=%g want 0", got)
	}
}

func TestExcessKurtosis(t *testing.T) {
	// A large normal sample should have excess kurtosis near 0.
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	if got := ExcessKurtosis(xs); math.Abs(got) > 0.15 {
		t.Errorf("ExcessKurtosis(normal sample)=%g want ~0", got)
	}
	// A heavy-tailed sample should have positive excess kurtosis.
	for i := range xs {
		u := rng.Float64()
		xs[i] = math.Tan(math.Pi * (u - 0.5) * 0.9) // truncated-Cauchy-ish
	}
	if got := ExcessKurtosis(xs); got <= 0 {
		t.Errorf("ExcessKurtosis(heavy tails)=%g want > 0", got)
	}
	if got := ExcessKurtosis([]float64{1, 2, 3}); got != 0 {
		t.Errorf("ExcessKurtosis n<4 = %g want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 || s.Mean != 5.5 || s.Min != 1 || s.Max != 10 || s.Median != 5.5 {
		t.Errorf("Summary = %+v", s)
	}
	if s.Q25 >= s.Median || s.Median >= s.Q75 {
		t.Errorf("quartiles out of order: %+v", s)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("Summarize(nil) err=%v", err)
	}
}

func TestCoverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Coverage(xs, 3, 7); got != 0.5 {
		t.Errorf("Coverage=%g want 0.5", got)
	}
	if got := Coverage(xs, -100, 100); got != 1 {
		t.Errorf("Coverage all=%g want 1", got)
	}
	if got := Coverage(xs, 100, 200); got != 0 {
		t.Errorf("Coverage none=%g want 0", got)
	}
	if got := Coverage(nil, 0, 1); got != 0 {
		t.Errorf("Coverage empty=%g want 0", got)
	}
}

func TestCoverageSigmaNormal(t *testing.T) {
	// ~95% of a large normal sample falls within 2 sigma; this is the
	// paper's core premise for stochastic values.
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = 12 + 0.6*rng.NormFloat64()
	}
	got := CoverageSigma(xs, 2)
	if math.Abs(got-0.9545) > 0.01 {
		t.Errorf("CoverageSigma(2)=%g want ~0.9545", got)
	}
}

// Property: mean lies within [min, max] and variance is non-negative.
func TestMeanVarianceProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e8 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		if m < lo-1e-6 || m > hi+1e-6 {
			return false
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
