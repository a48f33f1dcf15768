// Per-quantile conformal calibration.
//
// The base calibrator rescales one symmetric half-width — correct for
// normal-shaped errors, wrong for the asymmetric, fat-tailed residuals of
// bursty multi-modal platforms, where the upper tail needs widening while
// the core stays sharp. When outcomes carry a full raw quantile grid
// (distribution-valued predictions), the Tracker additionally maintains a
// conformal adjustment in two parts.
//
// First, a *median shift*: the structural model's point prediction can
// carry a systematic relative bias against the measured platform (it
// prices contention it never observes, or misses overhead it cannot see),
// and no symmetric-around-the-median stretch can repair a miscentered
// grid. The shift is the regime-window median of the relative residual
// (actual - median) / median; the calibrated grid is recentered at
// median x (1 + shift).
//
// Second, a *two-sided, per-level* stretch around the shifted median: for
// each central interval level L it learns separate multipliers for the
// lower and upper quantile offsets, from the empirical quantiles of the
// side-specific nonconformity scores (written in median-relative units,
// with a = actual/median and relLo/relHi the side offsets as fractions of
// the median)
//
//	sLo = ((1 + shift) - a) / relLo_L
//	sHi = (a - (1 + shift)) / relHi_L
//
// at probability (1+L)/2 with the usual split-conformal finite-sample
// correction. A score above 1 means that side's quantile was too tight; the
// learned multiplier says exactly how much to stretch it. Multiplicative
// (rather than CQR-style additive) adjustment is deliberate: the raw grids
// come from conditional forecasters whose side widths vary per prediction,
// and a per-side ratio both transfers across that heteroscedasticity and —
// clamped to [QScaleFloor, QScaleCeil] — lets an overdispersed side shrink
// toward the floor without letting one wrong-mode miss inflate every later
// interval, which an additive window-max offset would. Shift and
// multipliers recompute from the current regime window only, so a drift
// reset restarts quantile calibration alongside the symmetric scale.
//
// Observe also scores each distribution-valued outcome's realized quantile
// (the probability integral transform of the actual under the raw grid); a
// windowed mean PIT near 0.5 indicates a centered predictive distribution.
//
// The grid itself is internal/dist's: grids arrive tabulated on
// dist.GridLevels, the interval levels are dist.IntervalLevels, and the
// monotone repair and the PIT inverse are dist.Monotone and dist.GridPIT,
// so the calibrator reads a grid at the levels it was tabulated at.
package calib

import (
	"math"

	"prodpred/internal/dist"
	"prodpred/internal/stats"
)

// quantileRec fills r's median-relative calibration ingredients and
// realized quantile from a distribution-valued outcome. A grid with a
// non-positive median or a degenerate (non-positive-width) side at any
// level is left out of quantile calibration entirely — there is no offset
// to rescale.
func quantileRec(r *WindowRec, o Outcome) {
	n := dist.MedianLevel
	med := o.RawQuantiles[n]
	if !(med > 0) {
		return
	}
	for i := range dist.IntervalLevels {
		if !(med-o.RawQuantiles[n-1-i] > 0) || !(o.RawQuantiles[n+1+i]-med > 0) {
			return
		}
	}
	r.Qok = true
	r.QsLo = make([]float64, n)
	r.QsHi = make([]float64, n)
	for i := range dist.IntervalLevels {
		r.QsLo[i] = (med - o.RawQuantiles[n-1-i]) / med
		r.QsHi[i] = (o.RawQuantiles[n+1+i] - med) / med
	}
	r.QRel = o.Actual / med
	r.Pit = dist.GridPIT(o.RawQuantiles, o.Actual)
}

// qShiftLimit bounds the conformal median shift: the calibrated median
// stays within [1/2, 3/2] of the raw one, so a few wild outcomes cannot
// recenter the grid off the forecast entirely.
const qShiftLimit = 0.5

// rescaleQuantilesLocked recomputes the conformal median shift and the
// per-level two-sided multipliers from the windowed distribution-valued
// outcomes, mirroring rescaleLocked for the symmetric scale — with one
// deliberate asymmetry in what evidence each part draws on.
//
// The shift estimates *model* bias — the structural model against the
// platform it serves — which persists across load-regime changes, so it is
// the median of the relative residual (actual - median)/median over the
// FULL window, clamped to ±qShiftLimit; a drift reset does not discard it
// (the window itself survives resets).
//
// The multipliers estimate *regime* dispersion, so they use only the
// current regime's outcomes: the empirical quantile of each side's scores
// — re-derived against the shifted median — at (1+L)/2 with the
// finite-sample correction, clamped to [QScaleFloor, QScaleCeil]. Without
// enough evidence the shift stays 0 and the multipliers stay 1.
func (t *Tracker) rescaleQuantilesLocked() {
	n := len(dist.IntervalLevels)
	t.qShift = 0
	for i := 0; i < n; i++ {
		t.qLo[i], t.qHi[i] = 1, 1
	}
	resid := t.scratch[:0]
	for i := range t.window {
		if t.window[i].Qok {
			resid = append(resid, t.window[i].QRel-1)
		}
	}
	t.scratch = resid
	if len(resid) >= MinObserved {
		shift := stats.QuantileInPlace(resid, 0.5)
		t.qShift = math.Min(math.Max(shift, -qShiftLimit), qShiftLimit)
	}

	regime := t.regimeWindowLocked()
	m := 0
	for i := range regime {
		if regime[i].Qok {
			m++
		}
	}
	if m < MinObserved {
		return
	}
	for side := 0; side < 2; side++ {
		for i, L := range dist.IntervalLevels {
			scores := t.scratch[:0]
			for j := range regime {
				r := &regime[j]
				if !r.Qok {
					continue
				}
				if side == 0 {
					scores = append(scores, ((1+t.qShift)-r.QRel)/r.QsLo[i])
				} else {
					scores = append(scores, (r.QRel-(1+t.qShift))/r.QsHi[i])
				}
			}
			level := math.Ceil(float64(m+1)*(1+L)/2) / float64(m)
			if level > 1 {
				level = 1
			}
			q := stats.QuantileInPlace(scores, level)
			q = math.Min(math.Max(q, QScaleFloor), QScaleCeil)
			if side == 0 {
				t.qLo[i] = q
			} else {
				t.qHi[i] = q
			}
		}
	}
}

// calibrateQuantilesLocked recenters a raw quantile grid (dist.GridLevels
// layout) by the conformal median shift, rescales the side offsets with the
// current per-level multipliers, and appends the calibrated, monotone grid
// to dst. A grid of unexpected length is appended
// unchanged. Overlay is its one caller.
func (t *Tracker) calibrateQuantilesLocked(dst, raw []float64) []float64 {
	if len(raw) != dist.NumLevels {
		return append(dst, raw...)
	}
	n := dist.MedianLevel
	med := raw[n]
	shifted := med * (1 + t.qShift)
	start := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, shifted-t.qLo[n-1-i]*(med-raw[i]))
	}
	dst = append(dst, shifted)
	for i := 0; i < n; i++ {
		dst = append(dst, shifted+t.qHi[i]*(raw[n+1+i]-med))
	}
	dist.Monotone(dst[start:])
	return dst
}
