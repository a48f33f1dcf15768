package modal

import (
	"math"
	"math/rand"
	"testing"

	"prodpred/internal/dist"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// paperTriModal draws samples resembling the paper's Figure 5 load: modes
// at 0.33, 0.49, 0.94.
func paperTriModal(rng *rand.Rand, n int) []float64 {
	comps := []dist.Normal{
		{Mu: 0.33, Sigma: 0.02},
		{Mu: 0.49, Sigma: 0.03},
		{Mu: 0.94, Sigma: 0.02},
	}
	ws := []float64{0.3, 0.3, 0.4}
	xs := make([]float64, n)
	for i := range xs {
		u := rng.Float64()
		var c dist.Normal
		switch {
		case u < ws[0]:
			c = comps[0]
		case u < ws[0]+ws[1]:
			c = comps[1]
		default:
			c = comps[2]
		}
		xs[i] = c.Sample(rng)
	}
	return xs
}

func TestFitEMRecoversTriModal(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	xs := paperTriModal(rng, 3000)
	mm, err := FitEM(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !mm.Converged {
		t.Errorf("EM did not converge in %d iterations", mm.Iterations)
	}
	wantMeans := []float64{0.33, 0.49, 0.94}
	wantWs := []float64{0.3, 0.3, 0.4}
	for i, m := range mm.Modes {
		if !almostEqual(m.Mean, wantMeans[i], 0.02) {
			t.Errorf("mode %d mean=%g want %g", i, m.Mean, wantMeans[i])
		}
		if !almostEqual(m.Weight, wantWs[i], 0.04) {
			t.Errorf("mode %d weight=%g want %g", i, m.Weight, wantWs[i])
		}
		if m.Sigma <= 0 || m.Sigma > 0.1 {
			t.Errorf("mode %d sigma=%g", i, m.Sigma)
		}
	}
}

func TestFitEMSingleComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	xs := dist.SampleN(dist.Normal{Mu: 5, Sigma: 0.5}, rng, 500)
	mm, err := FitEM(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mm.Modes[0].Mean, 5, 0.1) || !almostEqual(mm.Modes[0].Sigma, 0.5, 0.08) {
		t.Errorf("single mode=%+v", mm.Modes[0])
	}
	if !almostEqual(mm.Modes[0].Weight, 1, 1e-9) {
		t.Errorf("weight=%g", mm.Modes[0].Weight)
	}
}

func TestFitEMValidation(t *testing.T) {
	if _, err := FitEM([]float64{1, 2, 3}, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := FitEM([]float64{1, 2, 3}, 2); err == nil {
		t.Error("tiny sample should fail")
	}
	same := make([]float64, 50)
	for i := range same {
		same[i] = 3
	}
	if _, err := FitEM(same, 2); err == nil {
		t.Error("degenerate sample should fail")
	}
}

func TestFitEMWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, k := range []int{1, 2, 3, 4} {
		xs := paperTriModal(rng, 800)
		mm, err := FitEM(xs, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		var sum float64
		for _, m := range mm.Modes {
			sum += m.Weight
			if m.Weight < 0 {
				t.Errorf("k=%d negative weight %g", k, m.Weight)
			}
			if m.Sigma <= 0 {
				t.Errorf("k=%d non-positive sigma %g", k, m.Sigma)
			}
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Errorf("k=%d weights sum to %g", k, sum)
		}
		// Modes sorted by mean.
		for i := 1; i < len(mm.Modes); i++ {
			if mm.Modes[i].Mean < mm.Modes[i-1].Mean {
				t.Errorf("k=%d modes not sorted", k)
			}
		}
	}
}

func TestFitBICSelectsThreeModes(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	xs := paperTriModal(rng, 3000)
	mm, err := FitBIC(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mm.K() != 3 {
		t.Errorf("BIC selected k=%d want 3", mm.K())
	}
}

func TestFitBICSelectsOneModeForUnimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	xs := dist.SampleN(dist.Normal{Mu: 0.5, Sigma: 0.05}, rng, 2000)
	mm, err := FitBIC(xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mm.K() != 1 {
		t.Errorf("BIC selected k=%d want 1", mm.K())
	}
}

func TestFitBICValidation(t *testing.T) {
	if _, err := FitBIC([]float64{1, 2}, 0); err == nil {
		t.Error("kMax=0 should fail")
	}
	if _, err := FitBIC([]float64{1, 2}, 3); err == nil {
		t.Error("tiny sample should propagate error")
	}
}

// TestFitBICRefusesWithoutAFiniteBIC: a sample whose every fit has a BIC
// that is NaN or +Inf (two of its values +Inf, NaN or near the float64
// ceiling) selects no candidate, and FitBIC says so with an error instead of
// a nil model.
func TestFitBICRefusesWithoutAFiniteBIC(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.NaN(), 1e308} {
		xs := make([]float64, 16)
		for i := range xs {
			xs[i] = 1 + 0.1*float64(i%4)
		}
		xs[3], xs[11] = bad, bad
		mm, err := FitBIC(xs, 4)
		if err == nil || mm != nil {
			t.Errorf("two values of %g: model %v, error %v; want an error and no model", bad, mm, err)
		}
	}
}

func TestClassify(t *testing.T) {
	mm := &MixtureModel{Modes: []Mode{
		{Mean: 0.3, Sigma: 0.05, Weight: 0.5},
		{Mean: 0.9, Sigma: 0.05, Weight: 0.5},
	}}
	if got := mm.Classify(0.25); got != 0 {
		t.Errorf("Classify(0.25)=%d", got)
	}
	if got := mm.Classify(0.95); got != 1 {
		t.Errorf("Classify(0.95)=%d", got)
	}
	labels := mm.ClassifySeries([]float64{0.3, 0.9, 0.31})
	if labels[0] != 0 || labels[1] != 1 || labels[2] != 0 {
		t.Errorf("labels=%v", labels)
	}
}

func TestClassifyRespectsWeights(t *testing.T) {
	// At the midpoint of two equal-sigma modes, the heavier mode wins.
	mm := &MixtureModel{Modes: []Mode{
		{Mean: 0.0, Sigma: 0.1, Weight: 0.99},
		{Mean: 1.0, Sigma: 0.1, Weight: 0.01},
	}}
	if got := mm.Classify(0.5); got != 0 {
		t.Errorf("midpoint classified to light mode")
	}
}

func TestOccupancy(t *testing.T) {
	mm := &MixtureModel{Modes: []Mode{
		{Mean: 0.3, Sigma: 0.05, Weight: 0.5},
		{Mean: 0.9, Sigma: 0.05, Weight: 0.5},
	}}
	xs := []float64{0.3, 0.3, 0.3, 0.9}
	occ := mm.Occupancy(xs)
	if !almostEqual(occ[0], 0.75, 1e-12) || !almostEqual(occ[1], 0.25, 1e-12) {
		t.Errorf("occupancy=%v", occ)
	}
	occEmpty := mm.Occupancy(nil)
	if occEmpty[0] != 0 || occEmpty[1] != 0 {
		t.Errorf("empty occupancy=%v", occEmpty)
	}
}

func TestMixtureModelMixtureRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	xs := paperTriModal(rng, 2000)
	mm, err := FitEM(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := mm.Mixture()
	if err != nil {
		t.Fatal(err)
	}
	if mix.K() != 3 {
		t.Fatalf("K=%d", mix.K())
	}
	// Mixture mean should match the weighted mode means.
	var want float64
	for _, m := range mm.Modes {
		want += m.Weight * m.Mean
	}
	if !almostEqual(mix.Mean(), want, 1e-9) {
		t.Errorf("mixture mean=%g want %g", mix.Mean(), want)
	}
}

func TestBICPenalizesComplexity(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	xs := dist.SampleN(dist.Normal{Mu: 0, Sigma: 1}, rng, 1000)
	m1, err := FitEM(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := FitEM(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m1.BIC(len(xs)) >= m3.BIC(len(xs)) {
		t.Errorf("BIC should prefer k=1 on unimodal data: %g vs %g",
			m1.BIC(len(xs)), m3.BIC(len(xs)))
	}
}

func TestEMIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	xs := paperTriModal(rng, 1000)
	a, err := FitEM(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitEM(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Modes {
		if a.Modes[i] != b.Modes[i] {
			t.Fatalf("EM nondeterministic: %+v vs %+v", a.Modes[i], b.Modes[i])
		}
	}
}
