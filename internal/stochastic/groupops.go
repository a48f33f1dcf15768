package stochastic

import (
	"errors"
	"math"

	"prodpred/internal/stats"
)

var (
	errEmptyModes     = errors.New("stochastic: no modes")
	errWeightMismatch = errors.New("stochastic: weight length mismatch")
	errBadWeight      = errors.New("stochastic: negative or NaN weight")
	errZeroWeights    = errors.New("stochastic: weights sum to zero")
	errEmptyGroup     = errors.New("stochastic: empty group operation")
)

// MaxStrategy selects how the Max/Min group operators of §2.3.3 resolve a
// set of stochastic values. The paper stresses that the right choice is
// situation-dependent: it depends on the penalty for guessing wrong and on
// the quality of information required.
type MaxStrategy int

const (
	// LargestMean picks the value with the largest mean — "on average, the
	// values of A are likely to be higher than the values of B".
	LargestMean MaxStrategy = iota
	// LargestMagnitude picks the value with the largest magnitude anywhere
	// in its range (largest Mean+Spread) — the conservative choice when the
	// penalty for underestimating is high.
	LargestMagnitude
	// Probabilistic computes moments of the maximum of the underlying
	// independent normals (Clark's pairwise approximation), yielding a new
	// stochastic value rather than selecting an input.
	Probabilistic
)

// Max combines vs under the given strategy. For LargestMean and
// LargestMagnitude the result is one of the inputs; for Probabilistic it is
// a fresh value approximating max(X1, ..., Xn) of independent normals.
func Max(strategy MaxStrategy, vs ...Value) (Value, error) {
	if len(vs) == 0 {
		return Value{}, errEmptyGroup
	}
	switch strategy {
	case LargestMean:
		best := vs[0]
		for _, v := range vs[1:] {
			if v.Mean > best.Mean {
				best = v
			}
		}
		return best, nil
	case LargestMagnitude:
		best := vs[0]
		for _, v := range vs[1:] {
			if v.Hi() > best.Hi() {
				best = v
			}
		}
		return best, nil
	case Probabilistic:
		out := vs[0]
		for _, v := range vs[1:] {
			out = clarkMax(out, v)
		}
		return out, nil
	}
	return Value{}, errors.New("stochastic: unknown max strategy")
}

// Min combines vs under the given strategy, mirroring Max: LargestMean
// becomes smallest mean, LargestMagnitude becomes smallest Lo(), and
// Probabilistic approximates min(X1, ..., Xn) via -max(-X).
func Min(strategy MaxStrategy, vs ...Value) (Value, error) {
	if len(vs) == 0 {
		return Value{}, errEmptyGroup
	}
	switch strategy {
	case LargestMean:
		best := vs[0]
		for _, v := range vs[1:] {
			if v.Mean < best.Mean {
				best = v
			}
		}
		return best, nil
	case LargestMagnitude:
		best := vs[0]
		for _, v := range vs[1:] {
			if v.Lo() < best.Lo() {
				best = v
			}
		}
		return best, nil
	case Probabilistic:
		neg := make([]Value, len(vs))
		for i, v := range vs {
			neg[i] = v.Neg()
		}
		m, err := Max(Probabilistic, neg...)
		if err != nil {
			return Value{}, err
		}
		return m.Neg(), nil
	}
	return Value{}, errors.New("stochastic: unknown min strategy")
}

// clarkMax returns Clark's (1961) moment-matching approximation to
// max(A, B) for independent normals A and B, expressed as a stochastic
// value. When both inputs are point values the result is the exact maximum.
func clarkMax(a, b Value) Value {
	sa, sb := a.Sigma(), b.Sigma()
	theta := math.Sqrt(sa*sa + sb*sb)
	if theta == 0 {
		return Point(math.Max(a.Mean, b.Mean))
	}
	alpha := (a.Mean - b.Mean) / theta
	phi := stats.NormalPDF(alpha)
	PhiA := stats.NormalCDF(alpha)
	PhiB := stats.NormalCDF(-alpha)
	mean := a.Mean*PhiA + b.Mean*PhiB + theta*phi
	second := (a.Mean*a.Mean+sa*sa)*PhiA +
		(b.Mean*b.Mean+sb*sb)*PhiB +
		(a.Mean+b.Mean)*theta*phi
	variance := second - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Value{Mean: mean, Spread: 2 * math.Sqrt(variance)}
}
