package stochastic

import (
	"errors"
	"math"

	"prodpred/internal/stats"
)

// RelationKind is the §2.3.1 relatedness judgement: whether two measured
// quantities have "a causal connection between their values".
type RelationKind int

// Related quantities fluctuate together and must be combined
// conservatively; Unrelated quantities are independent and combine
// root-sum-square.
const (
	RelatedKind RelationKind = iota
	UnrelatedKind
)

func (k RelationKind) String() string {
	if k == RelatedKind {
		return "related"
	}
	return "unrelated"
}

// DetectRelation judges relatedness from paired measurement histories
// (e.g. simultaneous latency and bandwidth sensor readings) using rank
// correlation, which catches monotone couplings regardless of shape. The
// paper leaves relatedness to the modeler; this helper automates the
// judgement when joint histories exist. It returns the detected kind and
// the measured rho.
func DetectRelation(xs, ys []float64, threshold float64) (RelationKind, float64, error) {
	if threshold <= 0 || threshold >= 1 {
		return UnrelatedKind, 0, errors.New("stochastic: relation threshold outside (0,1)")
	}
	if len(xs) < 8 {
		return UnrelatedKind, 0, errors.New("stochastic: need at least 8 paired observations")
	}
	rho, err := stats.SpearmanCorrelation(xs, ys)
	if err != nil {
		return UnrelatedKind, 0, err
	}
	if math.Abs(rho) >= threshold {
		return RelatedKind, rho, nil
	}
	return UnrelatedKind, rho, nil
}
