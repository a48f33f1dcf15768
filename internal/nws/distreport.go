package nws

import (
	"math"

	"prodpred/internal/dist"
	"prodpred/internal/stochastic"
)

// LoadDist is a distribution-valued monitor report: the tournament
// winner's predictive quantiles on the dist.GridLevels grid,
// staleness-widened around the median exactly as RobustReport widens its
// spread, plus the winner's mixture-component summary and tag.
type LoadDist struct {
	// Quantiles are the predictive quantiles at dist.GridLevels,
	// nondecreasing.
	Quantiles []float64
	// Components summarize the predictive distribution as a Gaussian
	// mixture; a single component for normal-shaped reports.
	Components []Component
	// Forecaster is the tournament winner's tag, or a fallback tag
	// ("fallback", "prior") when the chain degraded past the tournament.
	Forecaster string
}

// Fallback tags reported when no tournament competitor can serve.
const (
	// FallbackForecasterName tags a running-mean fallback report (stale
	// history or no competitor ready).
	FallbackForecasterName = "fallback"
	// PriorForecasterName tags a caller-prior report (no history at all).
	PriorForecasterName = "prior"
)

// RobustDistReport runs the monitor to time t and always returns a usable
// distribution report, degrading along the same chain as RobustReport:
//
//  1. fresh history: the tournament winner's quantile function, widened
//     around its median by the staleness factor;
//  2. stale history or no ready competitor: a normal around the running
//     mean with a conservative, staleness-widened sigma;
//  3. no history at all: the caller-supplied prior, read as a normal.
func (m *Monitor) RobustDistReport(t float64, prior stochastic.Value) LoadDist {
	_ = m.RunUntil(t)
	if m.ring.Len() == 0 {
		return normalLoadDist(prior.Mean, math.Max(prior.Sigma(), minConservativeRMSE), PriorForecasterName)
	}
	if m.stale <= staleLimit {
		// Without a tournament the incumbent is the only competitor.
		var winner DistForecaster = normalDist{}
		if m.tour != nil {
			winner, _ = m.tour.Winner()
		}
		point, _ := m.forecast()
		qs := make([]float64, dist.NumLevels)
		if winner.Quantiles(point, dist.GridLevels, qs) {
			return m.widenedDist(qs, winner.Components(point), winner.Name())
		}
	}
	mean, sigma := m.runningMean()
	return normalLoadDist(mean, sigma*m.DegradationFactor(), FallbackForecasterName)
}

// widenedDist takes a competitor's quantiles on the grid, widens
// them in place around the median by the staleness degradation factor, and
// enforces monotonicity.
func (m *Monitor) widenedDist(qs []float64, comps []Component, name string) LoadDist {
	if w := m.DegradationFactor(); w != 1 {
		med := qs[dist.MedianLevel]
		for i := range qs {
			qs[i] = med + w*(qs[i]-med)
		}
		widened := make([]Component, len(comps))
		for i, c := range comps {
			widened[i] = Component{Weight: c.Weight, Mean: c.Mean, Sigma: c.Sigma * w}
		}
		comps = widened
	}
	dist.Monotone(qs)
	return LoadDist{Quantiles: qs, Components: comps, Forecaster: name}
}

// normalLoadDist tabulates a normal's quantiles on the grid.
func normalLoadDist(mean, sigma float64, name string) LoadDist {
	return LoadDist{
		Quantiles:  dist.NormalGrid(mean, sigma),
		Components: []Component{{Weight: 1, Mean: mean, Sigma: sigma}},
		Forecaster: name,
	}
}
