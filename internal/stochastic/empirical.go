package stochastic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"prodpred/internal/stats"
)

// Empirical is the representation the paper's §2.1 declines to use: a
// quantity carried as its full sample rather than a normal summary.
// "General distributions are awkward to work with because they have no
// unifying properties" — combining them requires Monte Carlo resampling
// instead of closed-form rules. Implementing them anyway gives the
// reproduction a ground-truth baseline: every Table 2 rule can be checked
// against the empirical combination, and the cost difference (a resampling
// pass vs a few multiplications) quantifies the efficiency the normal
// assumption buys.
//
// Empirical values are immutable after construction.
type Empirical struct {
	sorted []float64
	mean   float64
	sigma  float64
}

// NewEmpirical builds an empirical value from a sample (copied; at least
// two observations).
func NewEmpirical(samples []float64) (*Empirical, error) {
	if len(samples) < 2 {
		return nil, errors.New("stochastic: empirical value needs >= 2 samples")
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m, sd := stats.MeanStd(s)
	return &Empirical{sorted: s, mean: m, sigma: sd}, nil
}

// N returns the sample size.
func (e *Empirical) N() int { return len(e.sorted) }

// Mean returns the sample mean.
func (e *Empirical) Mean() float64 { return e.mean }

// Sigma returns the sample standard deviation.
func (e *Empirical) Sigma() float64 { return e.sigma }

// Summary collapses the empirical value to the paper's normal summary:
// mean ± 2σ.
func (e *Empirical) Summary() Value {
	return Value{Mean: e.mean, Spread: 2 * e.sigma}
}

// Quantile returns the q-th sample quantile, read off the sample sorted at
// construction.
func (e *Empirical) Quantile(q float64) (float64, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, stats.ErrQuantileLevel
	}
	return stats.QuantileSorted(e.sorted, q), nil
}

// Interval returns the central interval holding fraction p of the sample
// (e.g. p = 0.95 gives the [2.5%, 97.5%] band) — the empirical analogue of
// Value.Interval.
func (e *Empirical) Interval(p float64) (lo, hi float64, err error) {
	if p <= 0 || p > 1 {
		return 0, 0, fmt.Errorf("stochastic: interval mass %g outside (0,1]", p)
	}
	tail := (1 - p) / 2
	lo, err = e.Quantile(tail)
	if err != nil {
		return 0, 0, err
	}
	hi, err = e.Quantile(1 - tail)
	return lo, hi, err
}

// Coverage returns the fraction of the sample within [lo, hi].
func (e *Empirical) Coverage(lo, hi float64) float64 {
	return stats.Coverage(e.sorted, lo, hi)
}

// Draw returns one sample value chosen uniformly (bootstrap draw).
func (e *Empirical) Draw(rng *rand.Rand) float64 {
	return e.sorted[rng.Intn(len(e.sorted))]
}

// combine resamples two empirical values independently n times through op.
func combine(a, b *Empirical, rng *rand.Rand, n int, op func(x, y float64) float64) (*Empirical, error) {
	if n < 2 {
		return nil, errors.New("stochastic: resample size must be >= 2")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = op(a.Draw(rng), b.Draw(rng))
	}
	return NewEmpirical(out)
}

// Add returns the empirical distribution of X + Y for independent draws,
// via n bootstrap resamples.
func (e *Empirical) Add(o *Empirical, rng *rand.Rand, n int) (*Empirical, error) {
	return combine(e, o, rng, n, func(x, y float64) float64 { return x + y })
}

// Sub returns the empirical distribution of X - Y for independent draws.
func (e *Empirical) Sub(o *Empirical, rng *rand.Rand, n int) (*Empirical, error) {
	return combine(e, o, rng, n, func(x, y float64) float64 { return x - y })
}

// Mul returns the empirical distribution of X * Y for independent draws.
func (e *Empirical) Mul(o *Empirical, rng *rand.Rand, n int) (*Empirical, error) {
	return combine(e, o, rng, n, func(x, y float64) float64 { return x * y })
}

// Div returns the empirical distribution of X / Y for independent draws.
// Divisor draws of zero are rejected; a divisor sample containing only
// zeros fails.
func (e *Empirical) Div(o *Empirical, rng *rand.Rand, n int) (*Empirical, error) {
	allZero := true
	for _, y := range o.sorted {
		if y != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return nil, errors.New("stochastic: empirical division by all-zero sample")
	}
	return combine(e, o, rng, n, func(x, y float64) float64 {
		for y == 0 {
			y = o.Draw(rng)
		}
		return x / y
	})
}

// String renders the empirical value as its normal summary plus sample
// size.
func (e *Empirical) String() string {
	return fmt.Sprintf("%s (n=%d)", e.Summary().String(), e.N())
}
