package stats

import (
	"sort"
)

// ECDF is an empirical cumulative distribution function built from a sample.
// The zero value is unusable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from xs. It copies the data, so the caller
// may reuse xs. It returns an error for an empty sample.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// At returns F(x), the fraction of the sample <= x.
func (e *ECDF) At(x float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= x;
	// we need the count of elements <= x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th empirical quantile (type-7 interpolation).
func (e *ECDF) Quantile(q float64) (float64, error) {
	// The sample is already sorted; reuse the package Quantile on it. It
	// re-sorts a copy, which is wasteful but keeps one code path; ECDFs in
	// this codebase are small (load traces of a few thousand points).
	return Quantile(e.sorted, q)
}

// Values returns the sorted sample. The caller must not modify it.
func (e *ECDF) Values() []float64 { return e.sorted }

// Curve samples the ECDF at n evenly spaced points across [min, max] and
// returns parallel slices of x and F(x), for plotting CDFs like the paper's
// Figures 2 and 4.
func (e *ECDF) Curve(n int) (xs, fs []float64) {
	if n < 2 {
		n = 2
	}
	lo := e.sorted[0]
	hi := e.sorted[len(e.sorted)-1]
	xs = make([]float64, n)
	fs = make([]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		xs[i] = x
		fs[i] = e.At(x)
	}
	return xs, fs
}
