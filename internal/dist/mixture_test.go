package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"prodpred/internal/stats"
)

// triModal mimics the paper's Figure 5 platform-1 load: modes near 0.33,
// 0.49, and 0.94.
func triModal(t *testing.T) *Mixture {
	t.Helper()
	m, err := NewMixture(
		[]Distribution{
			Normal{Mu: 0.33, Sigma: 0.03},
			Normal{Mu: 0.49, Sigma: 0.05},
			Normal{Mu: 0.94, Sigma: 0.02},
		},
		[]float64{0.3, 0.3, 0.4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMixtureContract(t *testing.T) {
	m := triModal(t)
	checkDistribution(t, "mixture", m, 0, 1.2)
	if m.K() != 3 {
		t.Errorf("K=%d", m.K())
	}
}

func TestMixtureValidation(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("empty mixture should fail")
	}
	if _, err := NewMixture([]Distribution{n}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewMixture([]Distribution{n}, []float64{-1}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewMixture([]Distribution{n}, []float64{math.NaN()}); err == nil {
		t.Error("NaN weight should fail")
	}
	if _, err := NewMixture([]Distribution{n, n}, []float64{0, 0}); err == nil {
		t.Error("all-zero weights should fail")
	}
}

func TestMixtureWeightNormalization(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	m, err := NewMixture([]Distribution{n, n}, []float64{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	w := m.weights
	if !almostEqual(w[0], 0.25, 1e-12) || !almostEqual(w[1], 0.75, 1e-12) {
		t.Errorf("weights=%v", w)
	}
}

func TestMixtureMeanVarianceLawOfTotal(t *testing.T) {
	m := triModal(t)
	wantMean := 0.3*0.33 + 0.3*0.49 + 0.4*0.94
	if !almostEqual(m.Mean(), wantMean, 1e-12) {
		t.Errorf("mean=%g want %g", m.Mean(), wantMean)
	}
	// Cross-check variance against a large sample.
	rng := rand.New(rand.NewSource(12))
	xs := SampleN(m, rng, 100000)
	if !almostEqual(stats.PopVariance(xs), m.Variance(), 0.003) {
		t.Errorf("sample var=%g analytic=%g", stats.PopVariance(xs), m.Variance())
	}
}

func TestMixtureComponentFrequencies(t *testing.T) {
	m := triModal(t)
	rng := rand.New(rand.NewSource(13))
	counts := make([]int, 3)
	n := 60000
	for i := 0; i < n; i++ {
		counts[m.PickComponent(rng)]++
	}
	want := []float64{0.3, 0.3, 0.4}
	for i, c := range counts {
		got := float64(c) / float64(n)
		if !almostEqual(got, want[i], 0.01) {
			t.Errorf("component %d frequency %g want %g", i, got, want[i])
		}
	}
}

func TestMixtureIsMultimodal(t *testing.T) {
	// The tri-modal mixture's PDF should have local minima between modes.
	m := triModal(t)
	pdfAt := func(x float64) float64 { return m.PDF(x) }
	if !(pdfAt(0.33) > pdfAt(0.41) && pdfAt(0.49) > pdfAt(0.41)) {
		t.Error("no valley between modes 1 and 2")
	}
	if !(pdfAt(0.49) > pdfAt(0.7) && pdfAt(0.94) > pdfAt(0.7)) {
		t.Error("no valley between modes 2 and 3")
	}
}

func TestMixtureQuantileMonotone(t *testing.T) {
	m := triModal(t)
	prev := math.Inf(-1)
	for p := 0.01; p < 1; p += 0.01 {
		q := m.Quantile(p)
		if q < prev {
			t.Fatalf("quantile not monotone at p=%g: %g < %g", p, q, prev)
		}
		prev = q
	}
	// Edge p values are clamped, not NaN.
	if math.IsNaN(m.Quantile(0)) || math.IsNaN(m.Quantile(1)) {
		t.Error("edge quantiles NaN")
	}
}

func TestMixtureSingleComponentDegeneratesToComponent(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 0.5}
	m, err := NewMixture([]Distribution{n}, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 2, 3, 4, 5} {
		if !almostEqual(m.PDF(x), n.PDF(x), 1e-12) || !almostEqual(m.CDF(x), n.CDF(x), 1e-12) {
			t.Fatalf("single-component mixture differs from component at %g", x)
		}
	}
	if !almostEqual(m.Quantile(0.3), n.Quantile(0.3), 1e-6) {
		t.Errorf("quantile differs: %g vs %g", m.Quantile(0.3), n.Quantile(0.3))
	}
}

// Property: mixture CDF is a convex combination, so it lies between the min
// and max of the component CDFs at every point.
func TestMixtureCDFBoundsProperty(t *testing.T) {
	m := triModal(t)
	f := func(xRaw float64) bool {
		if math.IsNaN(xRaw) || math.IsInf(xRaw, 0) {
			return true
		}
		x := math.Mod(xRaw, 3)
		lo, hi := 1.0, 0.0
		for _, c := range m.Components() {
			v := c.CDF(x)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		got := m.CDF(x)
		return got >= lo-1e-12 && got <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
