// Package dist provides the continuous distribution families the
// reproduction needs: Normal (the paper's workhorse summary), LogNormal and
// Pareto (long-tailed system data, §2.1.1), truncated normals (CPU availability is confined to
// [0,1]), and finite mixtures (multi-modal load, §2.1.2).
//
// Every distribution exposes PDF, CDF, Quantile, moments, and seeded
// sampling via *rand.Rand so experiments are reproducible.
package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"prodpred/internal/stats"
)

// Distribution is a one-dimensional continuous distribution.
type Distribution interface {
	// PDF returns the probability density at x.
	PDF(x float64) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns the smallest x with CDF(x) >= p, for p in (0,1).
	Quantile(p float64) float64
	// Mean returns the distribution mean.
	Mean() float64
	// Variance returns the distribution variance.
	Variance() float64
	// Sample draws one variate using rng.
	Sample(rng *rand.Rand) float64
}

// SampleN draws n variates from d using rng.
func SampleN(d Distribution, rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}

// Normal is the normal distribution N(Mu, Sigma^2), Sigma > 0.
type Normal struct {
	Mu    float64
	Sigma float64
}

// NewNormal constructs a Normal, validating sigma > 0.
func NewNormal(mu, sigma float64) (Normal, error) {
	if !(sigma > 0) || math.IsNaN(mu) || math.IsInf(mu, 0) || math.IsInf(sigma, 0) {
		return Normal{}, fmt.Errorf("dist: invalid normal parameters mu=%g sigma=%g", mu, sigma)
	}
	return Normal{Mu: mu, Sigma: sigma}, nil
}

// FitNormal fits a normal distribution to xs by maximum likelihood
// (sample mean, population standard deviation). It fails on samples of
// fewer than two distinct values.
func FitNormal(xs []float64) (Normal, error) {
	if len(xs) < 2 {
		return Normal{}, errors.New("dist: FitNormal needs at least 2 observations")
	}
	mu := stats.Mean(xs)
	sigma := math.Sqrt(stats.PopVariance(xs))
	if sigma == 0 {
		return Normal{}, errors.New("dist: FitNormal on a degenerate sample")
	}
	return Normal{Mu: mu, Sigma: sigma}, nil
}

// PDF implements Distribution.
func (n Normal) PDF(x float64) float64 {
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-z*z/2) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF implements Distribution.
func (n Normal) CDF(x float64) float64 {
	return stats.NormalCDF((x - n.Mu) / n.Sigma)
}

// Quantile implements Distribution.
func (n Normal) Quantile(p float64) float64 {
	return n.Mu + n.Sigma*stats.NormalQuantile(p)
}

// Mean implements Distribution.
func (n Normal) Mean() float64 { return n.Mu }

// Variance implements Distribution.
func (n Normal) Variance() float64 { return n.Sigma * n.Sigma }

// Sample implements Distribution.
func (n Normal) Sample(rng *rand.Rand) float64 {
	return n.Mu + n.Sigma*rng.NormFloat64()
}

// String renders the distribution in the paper's "X ± a" notation, where a
// is two standard deviations.
func (n Normal) String() string {
	return fmt.Sprintf("%.4g ± %.4g", n.Mu, 2*n.Sigma)
}

// LogNormal is the distribution of exp(N(MuLog, SigmaLog^2)): the canonical
// long-tailed model for durations and transfer times.
type LogNormal struct {
	MuLog    float64
	SigmaLog float64
}

// NewLogNormal constructs a LogNormal, validating sigmaLog > 0.
func NewLogNormal(muLog, sigmaLog float64) (LogNormal, error) {
	if !(sigmaLog > 0) || math.IsNaN(muLog) || math.IsInf(muLog, 0) {
		return LogNormal{}, fmt.Errorf("dist: invalid lognormal parameters %g %g", muLog, sigmaLog)
	}
	return LogNormal{MuLog: muLog, SigmaLog: sigmaLog}, nil
}

// LogNormalFromMoments returns the LogNormal with the given mean and
// standard deviation (both > 0) in linear space.
func LogNormalFromMoments(mean, std float64) (LogNormal, error) {
	if !(mean > 0) || !(std > 0) {
		return LogNormal{}, errors.New("dist: lognormal moments must be positive")
	}
	cv2 := (std / mean) * (std / mean)
	sigma2 := math.Log(1 + cv2)
	return LogNormal{
		MuLog:    math.Log(mean) - sigma2/2,
		SigmaLog: math.Sqrt(sigma2),
	}, nil
}

// PDF implements Distribution.
func (l LogNormal) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := (math.Log(x) - l.MuLog) / l.SigmaLog
	return math.Exp(-z*z/2) / (x * l.SigmaLog * math.Sqrt(2*math.Pi))
}

// CDF implements Distribution.
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return stats.NormalCDF((math.Log(x) - l.MuLog) / l.SigmaLog)
}

// Quantile implements Distribution.
func (l LogNormal) Quantile(p float64) float64 {
	return math.Exp(l.MuLog + l.SigmaLog*stats.NormalQuantile(p))
}

// Mean implements Distribution.
func (l LogNormal) Mean() float64 {
	return math.Exp(l.MuLog + l.SigmaLog*l.SigmaLog/2)
}

// Variance implements Distribution.
func (l LogNormal) Variance() float64 {
	s2 := l.SigmaLog * l.SigmaLog
	return (math.Exp(s2) - 1) * math.Exp(2*l.MuLog+s2)
}

// Sample implements Distribution.
func (l LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.MuLog + l.SigmaLog*rng.NormFloat64())
}

// Pareto is the Pareto (type I) distribution with scale Xm > 0 and shape
// Alpha > 0 — the textbook heavy tail.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// NewPareto constructs a Pareto, validating xm > 0 and alpha > 0.
func NewPareto(xm, alpha float64) (Pareto, error) {
	if !(xm > 0) || !(alpha > 0) {
		return Pareto{}, fmt.Errorf("dist: invalid pareto parameters xm=%g alpha=%g", xm, alpha)
	}
	return Pareto{Xm: xm, Alpha: alpha}, nil
}

// PDF implements Distribution.
func (p Pareto) PDF(x float64) float64 {
	if x < p.Xm {
		return 0
	}
	return p.Alpha * math.Pow(p.Xm, p.Alpha) / math.Pow(x, p.Alpha+1)
}

// CDF implements Distribution.
func (p Pareto) CDF(x float64) float64 {
	if x < p.Xm {
		return 0
	}
	return 1 - math.Pow(p.Xm/x, p.Alpha)
}

// Quantile implements Distribution.
func (p Pareto) Quantile(q float64) float64 {
	if q <= 0 {
		return p.Xm
	}
	if q >= 1 {
		return math.Inf(1)
	}
	return p.Xm / math.Pow(1-q, 1/p.Alpha)
}

// Mean implements Distribution. It is +Inf for Alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Variance implements Distribution. It is +Inf for Alpha <= 2.
func (p Pareto) Variance() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	a := p.Alpha
	return p.Xm * p.Xm * a / ((a - 1) * (a - 1) * (a - 2))
}

// Sample implements Distribution.
func (p Pareto) Sample(rng *rand.Rand) float64 {
	// Inverse transform on 1-U (U in [0,1)), avoiding a zero denominator.
	return p.Xm / math.Pow(1-rng.Float64(), 1/p.Alpha)
}
