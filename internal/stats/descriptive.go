// Package stats implements the descriptive and inferential statistics the
// reproduction needs: moments, quantiles, histograms, empirical CDFs,
// goodness-of-fit tests, and autocorrelation.
//
// The paper's methodology (Schopf & Berman, IPPS/SPDP '98) summarizes
// measured system characteristics as normal distributions ("stochastic
// values"); this package supplies the machinery to compute those summaries
// from raw samples and to judge when the normal summary is adequate
// (normality tests, coverage-within-k-sigma for long-tailed data).
//
// Everything here is stdlib-only and deterministic.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// ErrQuantileLevel is returned for a quantile level outside [0,1].
var ErrQuantileLevel = errors.New("stats: quantile q out of [0,1]")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Kahan summation: load traces can be long and narrow-ranged, and the
	// variance computations downstream are sensitive to the mean.
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// PopVariance returns the population (n) variance of xs.
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanStd returns the mean and sample standard deviation in one pass over
// the moments.
func MeanStd(xs []float64) (mean, std float64) {
	return Mean(xs), StdDev(xs)
}

// Min returns the smallest element of xs, or an error if xs is empty.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs, or an error if xs is empty.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Median returns the median of xs (average of the two central order
// statistics for even n). It returns an error for an empty sample.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile of xs, 0 <= q <= 1, using linear
// interpolation between order statistics (type-7, the R/NumPy default).
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, ErrQuantileLevel
	}
	return QuantileInPlace(append([]float64(nil), xs...), q), nil
}

// QuantileSorted is Quantile on a sample the caller has already sorted
// ascending (as sort.Float64s orders it) and checked: s must be non-empty
// and q in [0,1]. It neither copies nor sorts.
func QuantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return s[lo]
	}
	frac := h - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// QuantileInPlace is Quantile without its copy and without a sort: xs must
// be non-empty and q in [0,1], and it returns what sort.Float64s followed by
// QuantileSorted returns — the same interpolation of the same two order
// statistics, NaNs ordered first — in O(len(xs)) expected time. The two can
// differ only in which of tied -0 and +0, or which NaN, they read. xs is left
// permuted.
func QuantileInPlace(xs []float64, q float64) float64 {
	return quantileSelect(xs, q, selectRounds(len(xs)))
}

// selectRounds is how many partition rounds quantileSelect allows before it
// sorts what is left: twice the depth a halving partition would need.
func selectRounds(n int) int { return 2 * bits.Len(uint(n)) }

// quantileSelect is QuantileInPlace with its partition rounds capped at
// rounds. It moves the NaNs to the front, as the sort does, selects the floor
// order statistic among the rest and takes the ceiling one as the smallest of
// the elements after it.
func quantileSelect(xs []float64, q float64, rounds int) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	nans := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nans] = xs[nans], x
			nans++
		}
	}
	if lo >= nans {
		selectNth(xs[nans:], lo-nans, rounds)
	}
	if lo == hi {
		return xs[lo]
	}
	ceil := xs[hi]
	if hi >= nans {
		for _, x := range xs[hi+1:] {
			if x < ceil {
				ceil = x
			}
		}
	}
	frac := h - float64(lo)
	return xs[lo]*(1-frac) + ceil*frac
}

// selectNth permutes xs, which holds no NaN, so that xs[k] is its k-th
// smallest element (from 0), nothing before it larger and nothing after it
// smaller. Each round partitions the range that holds k around a median of
// three (Hoare's scheme, so runs of equal elements still split in half); once
// rounds are spent it sorts the range left, so an input built against the
// pivot rule costs O(n log n), not O(n²).
func selectNth(xs []float64, k, rounds int) {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		if rounds == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		rounds--
		m := lo + (hi-lo)/2
		if xs[m] < xs[lo] {
			xs[m], xs[lo] = xs[lo], xs[m]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[m] {
			xs[hi], xs[m] = xs[m], xs[hi]
		}
		p := xs[m]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for p < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] <= p <= xs[i..hi], and anything between equals p.
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
}

// Skewness returns the adjusted Fisher-Pearson sample skewness (g1 with the
// small-sample correction). It returns 0 when n < 3 or the sample is
// degenerate.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// ExcessKurtosis returns the sample excess kurtosis (g2 = m4/m2^2 - 3).
// It returns 0 when n < 4 or the sample is degenerate.
func ExcessKurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return 0
	}
	m := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	return m4/(m2*m2) - 3
}

// Summary bundles the descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	Min      float64
	Q25      float64
	Median   float64
	Q75      float64
	Max      float64
	Skewness float64
	Kurtosis float64 // excess kurtosis
}

// Summarize computes a Summary of xs. It returns an error for an empty
// sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	q25, _ := Quantile(xs, 0.25)
	med, _ := Quantile(xs, 0.5)
	q75, _ := Quantile(xs, 0.75)
	return Summary{
		N:        len(xs),
		Mean:     Mean(xs),
		StdDev:   StdDev(xs),
		Min:      lo,
		Q25:      q25,
		Median:   med,
		Q75:      q75,
		Max:      hi,
		Skewness: Skewness(xs),
		Kurtosis: ExcessKurtosis(xs),
	}, nil
}

// Coverage returns the fraction of xs lying inside the closed interval
// [lo, hi]. The paper uses this to quantify how much of a long-tailed sample
// a 2-sigma normal summary actually covers (§2.1.1: 91% instead of the
// nominal 95%).
func Coverage(xs []float64, lo, hi float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	in := 0
	for _, x := range xs {
		if x >= lo && x <= hi {
			in++
		}
	}
	return float64(in) / float64(len(xs))
}

// CoverageSigma returns the fraction of xs within k sample standard
// deviations of the sample mean.
func CoverageSigma(xs []float64, k float64) float64 {
	m, s := MeanStd(xs)
	return Coverage(xs, m-k*s, m+k*s)
}
