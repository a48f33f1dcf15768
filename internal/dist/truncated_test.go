package dist

import (
	"math"
	"math/rand"
	"testing"

	"prodpred/internal/stats"
)

func TestTruncatedNormalContract(t *testing.T) {
	tn, err := NewTruncatedNormal(0.48, 0.1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkDistribution(t, "truncnormal", tn, -0.2, 1.2)
	if tn.PDF(-0.01) != 0 || tn.PDF(1.01) != 0 {
		t.Error("PDF outside bounds should be 0")
	}
	if tn.CDF(-0.01) != 0 || tn.CDF(1.0) != 1 {
		t.Error("CDF at bounds wrong")
	}
}

func TestTruncatedNormalSamplesInBounds(t *testing.T) {
	tn, err := NewTruncatedNormal(0.9, 0.3, 0, 1) // heavy truncation at the top
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	xs := SampleN(tn, rng, 20000)
	for _, x := range xs {
		if x < 0 || x > 1 {
			t.Fatalf("sample %g out of bounds", x)
		}
	}
	// Truncating the upper tail pulls the mean below mu.
	if m := stats.Mean(xs); m >= 0.9 {
		t.Errorf("mean=%g should be < 0.9", m)
	}
	if !almostEqual(stats.Mean(xs), tn.Mean(), 0.01) {
		t.Errorf("sample mean %g vs analytic %g", stats.Mean(xs), tn.Mean())
	}
	if sd := math.Sqrt(tn.Variance()); !almostEqual(stats.StdDev(xs), sd, 0.01) {
		t.Errorf("sample std %g vs analytic %g", stats.StdDev(xs), sd)
	}
}

func TestTruncatedNormalNearlyUntruncated(t *testing.T) {
	// Bounds far beyond the mass: behaves like the base normal.
	tn, err := NewTruncatedNormal(5, 1, -100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tn.Mean(), 5, 1e-9) {
		t.Errorf("mean=%g", tn.Mean())
	}
	if !almostEqual(tn.Variance(), 1, 1e-6) {
		t.Errorf("variance=%g", tn.Variance())
	}
	if !almostEqual(tn.Quantile(0.975), 5+1.959963984540054, 1e-6) {
		t.Errorf("q975=%g", tn.Quantile(0.975))
	}
}

func TestTruncatedNormalValidation(t *testing.T) {
	if _, err := NewTruncatedNormal(0, 0, 0, 1); err == nil {
		t.Error("sigma=0 should fail")
	}
	if _, err := NewTruncatedNormal(0, 1, 1, 1); err == nil {
		t.Error("empty interval should fail")
	}
	if _, err := NewTruncatedNormal(0, 0.001, 50, 51); err == nil {
		t.Error("interval with no mass should fail")
	}
}

func TestTruncatedNormalQuantileEdges(t *testing.T) {
	tn, _ := NewTruncatedNormal(0.5, 0.2, 0, 1)
	if tn.Quantile(0) != 0 || tn.Quantile(1) != 1 {
		t.Errorf("quantile edges: %g %g", tn.Quantile(0), tn.Quantile(1))
	}
	if math.IsNaN(tn.Quantile(0.5)) {
		t.Error("median NaN")
	}
}
