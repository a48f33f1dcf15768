package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewECDFErrors(t *testing.T) {
	if _, err := NewECDF(nil); err != ErrEmpty {
		t.Errorf("NewECDF(nil) err=%v want ErrEmpty", err)
	}
}

func TestECDFAt(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.5}, {4, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); got != c.want {
			t.Errorf("At(%g)=%g want %g", c.x, got, c.want)
		}
	}
}

func TestECDFTies(t *testing.T) {
	e, _ := NewECDF([]float64{2, 2, 2, 5})
	if got := e.At(2); got != 0.75 {
		t.Errorf("At(2)=%g want 0.75", got)
	}
	if got := e.At(1.999); got != 0 {
		t.Errorf("At(just below)=%g want 0", got)
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	e, _ := NewECDF(xs)
	xs[0] = 100
	if got := e.At(3); got != 1 {
		t.Errorf("ECDF aliased caller slice: At(3)=%g", got)
	}
}

func TestECDFQuantileAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	e, _ := NewECDF(xs)
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		want, _ := Quantile(xs, q)
		got, err := e.Quantile(q)
		if err != nil || !almostEqual(got, want, 1e-12) {
			t.Errorf("Quantile(%g)=%g,%v want %g", q, got, err, want)
		}
	}
}

func TestECDFCurve(t *testing.T) {
	e, _ := NewECDF([]float64{0, 1, 2, 3, 4})
	xs, fs := e.Curve(5)
	if len(xs) != 5 || len(fs) != 5 {
		t.Fatalf("curve lengths %d %d", len(xs), len(fs))
	}
	if xs[0] != 0 || xs[4] != 4 {
		t.Errorf("curve endpoints %g %g", xs[0], xs[4])
	}
	if fs[4] != 1 {
		t.Errorf("curve final F=%g", fs[4])
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] < fs[i-1] {
			t.Errorf("curve not monotone at %d", i)
		}
	}
	// n < 2 clamps to 2 points.
	xs, fs = e.Curve(1)
	if len(xs) != 2 || len(fs) != 2 {
		t.Errorf("clamped curve lengths %d %d", len(xs), len(fs))
	}
}

// Properties: ECDF is monotone non-decreasing, bounded in [0,1], and hits 1
// at the sample maximum.
func TestECDFProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e, err := NewECDF(xs)
		if err != nil {
			return false
		}
		hi, _ := Max(xs)
		if e.At(hi) != 1 {
			return false
		}
		prev := -1.0
		vals := e.Values()
		for _, v := range vals {
			f := e.At(v)
			if f < prev || f < 0 || f > 1 {
				return false
			}
			prev = f
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
