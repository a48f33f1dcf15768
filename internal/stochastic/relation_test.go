package stochastic

import (
	"math/rand"
	"testing"
)

// coupledHistories simulates latency/bandwidth-style coupling: both driven
// by a shared congestion signal.
func coupledHistories(rng *rand.Rand, n int) (lat, bw []float64) {
	lat = make([]float64, n)
	bw = make([]float64, n)
	for i := range lat {
		congestion := rng.Float64()
		lat[i] = 0.01 + 0.05*congestion + 0.002*rng.NormFloat64()
		bw[i] = 8 - 5*congestion + 0.2*rng.NormFloat64()
	}
	return lat, bw
}

func TestDetectRelationCoupled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lat, bw := coupledHistories(rng, 300)
	kind, rho, err := DetectRelation(lat, bw, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if kind != RelatedKind {
		t.Errorf("coupled histories detected as %v (rho=%g)", kind, rho)
	}
	if rho >= 0 {
		t.Errorf("latency/bandwidth coupling should be negative: rho=%g", rho)
	}
}

func TestDetectRelationIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := make([]float64, 300)
	b := make([]float64, 300)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	kind, rho, err := DetectRelation(a, b, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if kind != UnrelatedKind {
		t.Errorf("independent histories detected as %v (rho=%g)", kind, rho)
	}
}

func TestDetectRelationValidation(t *testing.T) {
	ok := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if _, _, err := DetectRelation(ok, ok, 0); err == nil {
		t.Error("threshold 0 should fail")
	}
	if _, _, err := DetectRelation(ok, ok, 1); err == nil {
		t.Error("threshold 1 should fail")
	}
	if _, _, err := DetectRelation(ok[:4], ok[:4], 0.5); err == nil {
		t.Error("short histories should fail")
	}
	if _, _, err := DetectRelation(ok, ok[:7], 0.5); err == nil {
		t.Error("length mismatch should fail")
	}
	constant := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	if _, _, err := DetectRelation(constant, ok, 0.5); err == nil {
		t.Error("constant history should fail")
	}
}

func TestRelationKindString(t *testing.T) {
	if RelatedKind.String() != "related" || UnrelatedKind.String() != "unrelated" {
		t.Error("kind strings")
	}
}
