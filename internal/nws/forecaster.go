// Package nws reimplements the forecasting core of the Network Weather
// Service (Wolski '96/'97), the monitoring system the paper uses to obtain
// run-time CPU-availability values and their variances at 5-second
// intervals.
//
// NWS runs a battery of cheap forecasters over each measurement history,
// tracks every forecaster's postmortem error, and reports the prediction of
// the currently most accurate one together with an error estimate. Here the
// report is surfaced directly as a stochastic.Value (forecast ± 2·RMSE), the
// form the paper's structural models consume.
package nws

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"prodpred/internal/stochastic"
)

// Forecaster predicts the next measurement from a history (oldest first).
// ok is false when the history is too short for this method.
type Forecaster interface {
	Name() string
	Predict(hist []float64) (value float64, ok bool)
}

// LastValue predicts the most recent measurement.
type LastValue struct{}

// Name implements Forecaster.
func (LastValue) Name() string { return "last" }

// Predict implements Forecaster.
func (LastValue) Predict(hist []float64) (float64, bool) {
	if len(hist) == 0 {
		return 0, false
	}
	return hist[len(hist)-1], true
}

// RunningMean predicts the mean of the entire history.
type RunningMean struct{}

// Name implements Forecaster.
func (RunningMean) Name() string { return "running-mean" }

// Predict implements Forecaster.
func (RunningMean) Predict(hist []float64) (float64, bool) {
	if len(hist) == 0 {
		return 0, false
	}
	var s float64
	for _, x := range hist {
		s += x
	}
	return s / float64(len(hist)), true
}

// WindowMean predicts the mean of the last W measurements.
type WindowMean struct{ W int }

// Name implements Forecaster.
func (f WindowMean) Name() string { return fmt.Sprintf("mean-%d", f.W) }

// Predict implements Forecaster.
func (f WindowMean) Predict(hist []float64) (float64, bool) {
	if f.W <= 0 || len(hist) < f.W {
		return 0, false
	}
	var s float64
	for _, x := range hist[len(hist)-f.W:] {
		s += x
	}
	return s / float64(f.W), true
}

// WindowMedian predicts the median of the last W measurements — robust to
// the spikes in long-tailed histories.
type WindowMedian struct{ W int }

// Name implements Forecaster.
func (f WindowMedian) Name() string { return fmt.Sprintf("median-%d", f.W) }

// Predict implements Forecaster.
func (f WindowMedian) Predict(hist []float64) (float64, bool) {
	if f.W <= 0 || len(hist) < f.W {
		return 0, false
	}
	// Battery windows fit the stack buffer; a wider one spills to the heap.
	var buf [32]float64
	w := append(buf[:0], hist[len(hist)-f.W:]...)
	sort.Float64s(w)
	return sortedWindow(w).median(), true
}

// ExpSmoothing predicts with exponential smoothing at gain Alpha in (0,1].
type ExpSmoothing struct{ Alpha float64 }

// Name implements Forecaster.
func (f ExpSmoothing) Name() string { return fmt.Sprintf("exp-%.2f", f.Alpha) }

// Predict implements Forecaster.
func (f ExpSmoothing) Predict(hist []float64) (float64, bool) {
	if len(hist) == 0 || f.Alpha <= 0 || f.Alpha > 1 {
		return 0, false
	}
	s := hist[0]
	for _, x := range hist[1:] {
		s = f.Alpha*x + (1-f.Alpha)*s
	}
	return s, true
}

// DefaultBattery returns the NWS-style mixture-of-experts forecaster set:
// last value, running mean, sliding means and medians at several widths,
// and exponential smoothing at several gains.
func DefaultBattery() []Forecaster {
	return []Forecaster{
		LastValue{},
		RunningMean{},
		WindowMean{W: 5}, WindowMean{W: 10}, WindowMean{W: 30},
		WindowMedian{W: 5}, WindowMedian{W: 15},
		ExpSmoothing{Alpha: 0.1}, ExpSmoothing{Alpha: 0.3}, ExpSmoothing{Alpha: 0.6},
	}
}

// minConservativeRMSE floors every no-postmortem conservative error
// estimate: without it a degenerate constant history (e.g. all zeros)
// produces a ±0 "stochastic" interval that can never capture anything.
const minConservativeRMSE = 1e-6

// Forecast is one NWS report: the best forecaster's prediction and the
// error estimate derived from its postmortem RMSE.
type Forecast struct {
	Value float64
	RMSE  float64
	Best  string // name of the winning forecaster
}

// Stochastic renders the forecast as a stochastic value: Value ± 2·RMSE.
func (f Forecast) Stochastic() stochastic.Value {
	return stochastic.FromMeanSigma(f.Value, f.RMSE)
}

// Mix is the mixture-of-experts selector: it scores every forecaster by
// cumulative squared postmortem error and forecasts with the current best.
// Not safe for concurrent use.
//
// Everything a Mix does with a history starts from the battery's predictions
// of it (a sweep); the postmortem and the forecast are both read off them.
// Update and Forecast sweep the history they are given, each forecaster's
// Predict in turn.
// A Monitor never re-reads its ring: it keeps an aggregate of it (RunningMean
// and the ExpSmoothing chains folded over aligned blocks, the WindowMedian
// windows kept sorted), reads the battery off that once per ring state and
// reuses the predictions for both.
type Mix struct {
	forecasters []Forecaster
	names       []string // Name() of each, taken once: most format theirs
	sqErr       []float64
	n           []int

	// RunningMean and every ExpSmoothing walk the whole history; a Monitor's
	// aggregate advances them together, one sample per push. fused marks
	// their battery positions, means and smooth list them.
	fused  []bool
	means  []int
	smooth []smoother
	// medians lists the WindowMedians, whose windows a Monitor's aggregate
	// keeps sorted; kept marks every position the aggregate answers for.
	medians []median
	kept    []bool

	scratch sweep // what the exported hist-taking methods sweep into
	sweeps  int   // battery passes run so far
}

// smoother is one ExpSmoothing chain of the aggregate's shared pass.
type smoother struct {
	idx         int     // battery position
	alpha, rest float64 // gain and 1-gain
	pow         float64 // rest^blockLen, multiplied out in order
}

// median is one WindowMedian of the battery.
type median struct{ idx, w int }

// sweep is the battery's output on one history: each forecaster's
// prediction, and whether it could make one.
type sweep struct {
	val []float64
	ok  []bool
}

// NewMix builds a Mix over the given forecasters (DefaultBattery() if nil).
func NewMix(fs []Forecaster) *Mix {
	if len(fs) == 0 {
		fs = DefaultBattery()
	}
	m := &Mix{
		forecasters: fs,
		names:       make([]string, len(fs)),
		sqErr:       make([]float64, len(fs)),
		n:           make([]int, len(fs)),
		fused:       make([]bool, len(fs)),
		kept:        make([]bool, len(fs)),
	}
	for i, f := range fs {
		m.names[i] = f.Name()
		switch f := f.(type) {
		case RunningMean:
			m.means = append(m.means, i)
			m.fused[i] = true
		case ExpSmoothing:
			if f.Alpha > 0 && f.Alpha <= 1 {
				sm := smoother{idx: i, alpha: f.Alpha, rest: 1 - f.Alpha, pow: 1}
				for k := 0; k < blockLen; k++ {
					sm.pow *= sm.rest
				}
				m.smooth = append(m.smooth, sm)
				m.fused[i] = true
			}
		case WindowMedian:
			if f.W > 0 {
				m.medians = append(m.medians, median{idx: i, w: f.W})
				m.kept[i] = true
			}
		}
		if m.fused[i] {
			m.kept[i] = true
		}
	}
	m.scratch = m.newSweep()
	return m
}

func (m *Mix) newSweep() sweep {
	return sweep{val: make([]float64, len(m.forecasters)), ok: make([]bool, len(m.forecasters))}
}

// sweep runs the battery over hist into out: each forecaster's own Predict.
// It serves the exported history-taking methods, and is what a Monitor's
// aggregate reads the same predictions as (bit for bit until its ring wraps).
func (m *Mix) sweep(hist []float64, out *sweep) {
	m.sweeps++
	for i, f := range m.forecasters {
		out.val[i], out.ok[i] = f.Predict(hist)
	}
}

// Update performs one postmortem round: every forecaster predicts from
// hist, and its squared error against the actual next measurement is
// accumulated.
func (m *Mix) Update(hist []float64, actual float64) {
	m.sweep(hist, &m.scratch)
	m.score(&m.scratch, actual)
}

// score accumulates the squared errors of a sweep's predictions against the
// measurement that followed its history.
func (m *Mix) score(s *sweep, actual float64) {
	for i, v := range s.val {
		if !s.ok[i] {
			continue
		}
		d := v - actual
		m.sqErr[i] += d * d
		m.n[i]++
	}
}

// Forecast predicts the next measurement from hist using the forecaster
// with the lowest postmortem RMSE (ties and unscored forecasters resolve in
// battery order, preferring scored ones). It fails when no forecaster can
// predict from the history.
func (m *Mix) Forecast(hist []float64) (Forecast, error) {
	m.sweep(hist, &m.scratch)
	return m.pick(&m.scratch, hist)
}

// pick chooses the forecast among a sweep's predictions of hist.
func (m *Mix) pick(s *sweep, hist []float64) (Forecast, error) {
	bestIdx := -1
	bestRMSE := math.Inf(1)
	bestVal := 0.0
	for i, v := range s.val {
		if !s.ok[i] {
			continue
		}
		rmse := math.Inf(1)
		if m.n[i] > 0 {
			rmse = math.Sqrt(m.sqErr[i] / float64(m.n[i]))
		}
		if bestIdx == -1 || rmse < bestRMSE {
			bestIdx, bestRMSE, bestVal = i, rmse, v
		}
	}
	if bestIdx == -1 {
		return Forecast{}, errors.New("nws: no forecaster can predict from this history")
	}
	if math.IsInf(bestRMSE, 1) {
		// No postmortem data yet: report a large conservative error of half
		// the history range (or the value itself when degenerate), floored
		// at a small epsilon so a constant — in particular all-zero —
		// history still yields a non-degenerate ±2·RMSE interval.
		lo, hi := hist[0], hist[0]
		for _, x := range hist {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		bestRMSE = (hi - lo) / 2
		if bestRMSE == 0 {
			bestRMSE = math.Abs(bestVal) * 0.5
		}
		if bestRMSE < minConservativeRMSE {
			bestRMSE = minConservativeRMSE
		}
	}
	return Forecast{Value: bestVal, RMSE: bestRMSE, Best: m.names[bestIdx]}, nil
}

// RMSEs reports each forecaster's name and current postmortem RMSE (NaN
// when unscored), for diagnostics and the forecaster ablation.
func (m *Mix) RMSEs() map[string]float64 {
	out := make(map[string]float64, len(m.forecasters))
	for i, name := range m.names {
		if m.n[i] == 0 {
			out[name] = math.NaN()
			continue
		}
		out[name] = math.Sqrt(m.sqErr[i] / float64(m.n[i]))
	}
	return out
}
