package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Mixture is a finite mixture of component distributions with non-negative
// weights summing to 1. Multi-modal CPU load (paper §2.1.2, Figures 5 and
// 10) is modeled as a mixture whose components are the modes.
type Mixture struct {
	components []Distribution
	weights    []float64
	lo, hi     float64 // the bracket Quantile searches in
}

// NewMixture builds a mixture from parallel component and weight slices.
// Weights must be non-negative and sum to a positive value; they are
// normalized to 1.
func NewMixture(components []Distribution, weights []float64) (*Mixture, error) {
	if len(components) == 0 {
		return nil, errors.New("dist: mixture needs at least one component")
	}
	if len(components) != len(weights) {
		return nil, errors.New("dist: mixture component/weight length mismatch")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("dist: invalid mixture weight %g", w)
		}
		total += w
	}
	if total <= 0 {
		return nil, errors.New("dist: mixture weights sum to zero")
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / total
	}
	m := &Mixture{
		components: append([]Distribution(nil), components...),
		weights:    norm,
	}
	m.lo, m.hi = m.bracket()
	return m, nil
}

// bracket spans the components' 1e-9 and 1-1e-9 quantiles, or 20 standard
// deviations either side of the mean when that is not a finite interval.
func (m *Mixture) bracket() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, c := range m.components {
		cl := c.Quantile(1e-9)
		ch := c.Quantile(1 - 1e-9)
		if cl < lo {
			lo = cl
		}
		if ch > hi {
			hi = ch
		}
	}
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) || !(hi > lo) {
		mu := m.Mean()
		sd := math.Sqrt(m.Variance())
		if sd == 0 || math.IsNaN(sd) {
			sd = math.Abs(mu) + 1
		}
		lo, hi = mu-20*sd, mu+20*sd
	}
	return lo, hi
}

// Components returns the component distributions. Callers must not modify
// the returned slice.
func (m *Mixture) Components() []Distribution { return m.components }

// K returns the number of components.
func (m *Mixture) K() int { return len(m.components) }

// PDF implements Distribution.
func (m *Mixture) PDF(x float64) float64 {
	var f float64
	for i, c := range m.components {
		f += m.weights[i] * c.PDF(x)
	}
	return f
}

// CDF implements Distribution.
func (m *Mixture) CDF(x float64) float64 {
	var f float64
	for i, c := range m.components {
		f += m.weights[i] * c.CDF(x)
	}
	return f
}

// Quantile implements Distribution by safeguarded Newton on the mixture CDF,
// which is monotone, inside the bracket NewMixture worked out. Every
// evaluation moves one end of the bracket. A Newton step is taken, nudged a
// quarter of the stop width past the root so that the bracket closes from
// both ends, unless it leaves the bracket, the PDF is 0, the CDF reads p
// exactly, or the step is more than half the one before; then the bracket
// is bisected instead. It stops, and answers the bracket's midpoint, once
// the bracket is 1e-12·(1+|hi|) wide: about 8 evaluations in on a load
// mixture, where halving the bracket takes 40.
func (m *Mixture) Quantile(p float64) float64 {
	if p <= 0 {
		p = 1e-12
	}
	if p >= 1 {
		p = 1 - 1e-12
	}
	lo, hi := m.lo, m.hi
	x, last := (lo+hi)/2, hi-lo
	for i := 0; i < 200; i++ {
		f := m.CDF(x) - p
		if f < 0 {
			lo = x
		} else {
			hi = x
		}
		tol := 1e-12 * (1 + math.Abs(hi))
		if hi-lo <= tol {
			break
		}
		// f/PDF is ±Inf or NaN where the PDF underflows, and next is then
		// outside the bracket or NaN: both bisect. So does f = 0: the CDF
		// reads p exactly along a stretch as wide as the PDF is small, and
		// the answer is its left end, which the tangent cannot see.
		step := f / m.PDF(x)
		next := x - step - math.Copysign(tol/4, step)
		if f == 0 || !(next > lo && next < hi) || math.Abs(next-x) > last/2 {
			next = (lo + hi) / 2
		}
		x, last = next, math.Abs(next-x)
	}
	return (lo + hi) / 2
}

// Mean implements Distribution.
func (m *Mixture) Mean() float64 {
	var mu float64
	for i, c := range m.components {
		mu += m.weights[i] * c.Mean()
	}
	return mu
}

// Variance implements Distribution using the law of total variance.
func (m *Mixture) Variance() float64 {
	mu := m.Mean()
	var v float64
	for i, c := range m.components {
		cm := c.Mean()
		v += m.weights[i] * (c.Variance() + (cm-mu)*(cm-mu))
	}
	return v
}

// Sample implements Distribution: pick a component by weight, then sample it.
func (m *Mixture) Sample(rng *rand.Rand) float64 {
	return m.components[m.PickComponent(rng)].Sample(rng)
}

// PickComponent returns a component index drawn according to the mixture
// weights. Exposed so Markov-modulated load processes can reuse the weights
// as stationary mode probabilities.
func (m *Mixture) PickComponent(rng *rand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for i, w := range m.weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(m.weights) - 1 // round-off guard
}
