package stats

import (
	"errors"
	"math"
	"sort"
)

// GOFResult is the outcome of a goodness-of-fit test.
type GOFResult struct {
	Statistic float64
	PValue    float64
	DF        int // degrees of freedom of a chi-square statistic; 0 otherwise
}

// Reject reports whether the null hypothesis is rejected at significance
// level alpha.
func (r GOFResult) Reject(alpha float64) bool { return r.PValue < alpha }

// KolmogorovSmirnov runs the one-sample K-S test of xs against the
// hypothesized CDF. The p-value uses the Stephens-corrected asymptotic
// Kolmogorov distribution and is approximate but adequate for the sample
// sizes in this reproduction (tens to thousands).
func KolmogorovSmirnov(xs []float64, cdf func(float64) float64) (GOFResult, error) {
	n := len(xs)
	if n == 0 {
		return GOFResult{}, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := 0.0
	for i, x := range s {
		f := cdf(x)
		// D+ and D- around each order statistic.
		dPlus := float64(i+1)/float64(n) - f
		dMinus := f - float64(i)/float64(n)
		if dPlus > d {
			d = dPlus
		}
		if dMinus > d {
			d = dMinus
		}
	}
	sqn := math.Sqrt(float64(n))
	lambda := (sqn + 0.12 + 0.11/sqn) * d
	return GOFResult{Statistic: d, PValue: KolmogorovSurvival(lambda)}, nil
}

// JarqueBera runs the Jarque-Bera normality test on xs: the statistic
// n/6*(S^2 + K^2/4) is asymptotically chi-square with 2 degrees of freedom
// under normality (S = skewness, K = excess kurtosis).
func JarqueBera(xs []float64) (GOFResult, error) {
	n := len(xs)
	if n < 8 {
		return GOFResult{}, errors.New("stats: Jarque-Bera needs at least 8 observations")
	}
	s := Skewness(xs)
	k := ExcessKurtosis(xs)
	stat := float64(n) / 6 * (s*s + k*k/4)
	return GOFResult{Statistic: stat, PValue: ChiSquareSurvival(stat, 2), DF: 2}, nil
}
