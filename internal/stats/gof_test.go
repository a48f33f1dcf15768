package stats

import (
	"math/rand"
	"testing"
)

func normalCDFWith(mu, sigma float64) func(float64) float64 {
	return func(x float64) float64 { return NormalCDF((x - mu) / sigma) }
}

func TestKolmogorovSmirnovAcceptsTrueDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = 5 + 2*rng.NormFloat64()
	}
	res, err := KolmogorovSmirnov(xs, normalCDFWith(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.01) {
		t.Errorf("K-S rejected true distribution: D=%g p=%g", res.Statistic, res.PValue)
	}
}

func TestKolmogorovSmirnovRejectsWrongDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = rng.ExpFloat64() // strongly non-normal
	}
	res, err := KolmogorovSmirnov(xs, normalCDFWith(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.01) {
		t.Errorf("K-S failed to reject: D=%g p=%g", res.Statistic, res.PValue)
	}
}

func TestKolmogorovSmirnovEmpty(t *testing.T) {
	if _, err := KolmogorovSmirnov(nil, normalCDFWith(0, 1)); err != ErrEmpty {
		t.Errorf("err=%v want ErrEmpty", err)
	}
}

func TestKSStatisticBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		res, err := KolmogorovSmirnov(xs, func(x float64) float64 {
			switch {
			case x < 0:
				return 0
			case x > 1:
				return 1
			}
			return x
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Statistic < 0 || res.Statistic > 1 {
			t.Fatalf("D out of [0,1]: %g", res.Statistic)
		}
		if res.PValue < 0 || res.PValue > 1 {
			t.Fatalf("p out of [0,1]: %g", res.PValue)
		}
	}
}

func TestJarqueBera(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	normal := make([]float64, 1000)
	for i := range normal {
		normal[i] = rng.NormFloat64()
	}
	res, err := JarqueBera(normal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.005) {
		t.Errorf("JB rejected normal sample: p=%g", res.PValue)
	}
	skewed := make([]float64, 1000)
	for i := range skewed {
		skewed[i] = rng.ExpFloat64()
	}
	res, err = JarqueBera(skewed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.01) {
		t.Errorf("JB failed to reject exponential sample: p=%g", res.PValue)
	}
	if _, err := JarqueBera([]float64{1, 2, 3}); err == nil {
		t.Error("JB on tiny sample should error")
	}
}

func TestGOFResultReject(t *testing.T) {
	r := GOFResult{PValue: 0.04}
	if !r.Reject(0.05) || r.Reject(0.01) {
		t.Errorf("Reject thresholds wrong")
	}
}
