package dist

import (
	"fmt"
	"math"
	"math/rand"

	"prodpred/internal/stats"
)

// TruncatedNormal is a normal distribution restricted to [Lo, Hi] and
// renormalized. CPU availability and load fractions live in [0,1], so modal
// load models use truncated normals as mode shapes.
type TruncatedNormal struct {
	base   Normal
	lo, hi float64
	// cached normalization
	cdfLo, cdfHi float64
}

// NewTruncatedNormal constructs a normal N(mu, sigma^2) truncated to
// [lo, hi]. It requires sigma > 0, hi > lo, and non-vanishing probability
// mass inside the interval.
func NewTruncatedNormal(mu, sigma, lo, hi float64) (TruncatedNormal, error) {
	base, err := NewNormal(mu, sigma)
	if err != nil {
		return TruncatedNormal{}, err
	}
	if !(hi > lo) {
		return TruncatedNormal{}, fmt.Errorf("dist: invalid truncation range [%g,%g]", lo, hi)
	}
	cdfLo := base.CDF(lo)
	cdfHi := base.CDF(hi)
	if cdfHi-cdfLo < 1e-12 {
		return TruncatedNormal{}, fmt.Errorf("dist: truncation [%g,%g] leaves no mass for N(%g,%g)", lo, hi, mu, sigma)
	}
	return TruncatedNormal{base: base, lo: lo, hi: hi, cdfLo: cdfLo, cdfHi: cdfHi}, nil
}

func (t TruncatedNormal) mass() float64 { return t.cdfHi - t.cdfLo }

// PDF implements Distribution.
func (t TruncatedNormal) PDF(x float64) float64 {
	if x < t.lo || x > t.hi {
		return 0
	}
	return t.base.PDF(x) / t.mass()
}

// CDF implements Distribution.
func (t TruncatedNormal) CDF(x float64) float64 {
	switch {
	case x < t.lo:
		return 0
	case x >= t.hi:
		return 1
	}
	return (t.base.CDF(x) - t.cdfLo) / t.mass()
}

// Quantile implements Distribution.
func (t TruncatedNormal) Quantile(p float64) float64 {
	if p <= 0 {
		return t.lo
	}
	if p >= 1 {
		return t.hi
	}
	return t.base.Quantile(t.cdfLo + p*t.mass())
}

// Mean implements Distribution, using the standard truncated-normal moment
// formula.
func (t TruncatedNormal) Mean() float64 {
	a := (t.lo - t.base.Mu) / t.base.Sigma
	b := (t.hi - t.base.Mu) / t.base.Sigma
	z := t.mass()
	return t.base.Mu + t.base.Sigma*(stats.NormalPDF(a)-stats.NormalPDF(b))/z
}

// Variance implements Distribution.
func (t TruncatedNormal) Variance() float64 {
	a := (t.lo - t.base.Mu) / t.base.Sigma
	b := (t.hi - t.base.Mu) / t.base.Sigma
	z := t.mass()
	pa, pb := stats.NormalPDF(a), stats.NormalPDF(b)
	term1 := 0.0
	// Guard the a*pdf(a) products at infinite bounds.
	if !math.IsInf(a, 0) {
		term1 += a * pa
	}
	if !math.IsInf(b, 0) {
		term1 -= b * pb
	}
	frac := (pa - pb) / z
	v := t.base.Sigma * t.base.Sigma * (1 + term1/z - frac*frac)
	if v < 0 {
		v = 0 // numerical floor
	}
	return v
}

// Sample implements Distribution by inverse-transform sampling, which is
// exact and branch-free (no rejection loop that could stall for narrow
// truncations).
func (t TruncatedNormal) Sample(rng *rand.Rand) float64 {
	x := t.Quantile(rng.Float64())
	// Clamp against quantile round-off at the extremes.
	if x < t.lo {
		x = t.lo
	}
	if x > t.hi {
		x = t.hi
	}
	return x
}
