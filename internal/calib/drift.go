package calib

import (
	"math"

	"prodpred/internal/modal"
)

// Drift-event reasons.
const (
	// ReasonCUSUM marks a sustained shift of the standardized forecast
	// residuals away from their regime baseline.
	ReasonCUSUM = "cusum"
	// ReasonModeCount marks residuals that turned multi-modal after a
	// single-mode regime baseline — the Platform-2-style bursty shift of
	// the paper's §2.1 normality caveat.
	ReasonModeCount = "mode-count"
)

// detectLocked runs both drift detectors against the newly appended outcome
// and reports whether a regime change fired. The CUSUM arms only after a
// residual baseline of MinObserved outcomes accumulates for the current
// regime, so the detector measures drift *within* a regime rather than the
// transient of its own warmup.
func (t *Tracker) detectLocked(r *WindowRec) (DriftEvent, bool) {
	if r.Excluded {
		return DriftEvent{}, false
	}
	// Phase 1: accumulate the regime's residual baseline.
	if t.baseN < MinObserved {
		t.baseN++
		t.baseSum += r.Z
		r.Armed = false
		return DriftEvent{}, false
	}
	r.Armed = true
	base := t.baseSum / float64(t.baseN)

	// Phase 2: two-sided CUSUM on the baseline-centered residual, in σ
	// units of the raw interval. Slack k absorbs ordinary wander; a
	// sustained shift accumulates toward the decision limit h.
	d := r.Z - base
	t.cusumPos = math.Max(0, t.cusumPos+d-CUSUMSlack)
	t.cusumNeg = math.Max(0, t.cusumNeg-d-CUSUMSlack)
	if stat := math.Max(t.cusumPos, t.cusumNeg); stat > CUSUMLimit {
		return DriftEvent{Time: r.Time, Seq: t.observed, Reason: ReasonCUSUM, Stat: stat}, true
	}

	// Phase 3: periodic mode-count check. A regime whose residuals were
	// single-mode and become multi-modal has changed character even if its
	// mean has not moved far enough for the CUSUM. Its verdict is read only
	// to fix the regime's baseline mode count and, from a single-mode
	// baseline, to fire; a regime that began multi-modal can only end by
	// the CUSUM, so its checks keep their schedule but fit nothing.
	t.sinceCheck++
	if t.sinceCheck < ModeCheck {
		return DriftEvent{}, false
	}
	t.sinceCheck = 0
	if t.baseModes >= 2 {
		return DriftEvent{}, false
	}
	zs := t.scratch[:0]
	regime := t.regimeWindowLocked()
	for i := range regime {
		if !regime[i].Excluded {
			zs = append(zs, regime[i].Z)
		}
	}
	t.scratch = zs
	if len(zs) < 2*MinObserved {
		return DriftEvent{}, false
	}
	mm, err := modal.FitBIC(zs, MaxModes)
	if err != nil {
		return DriftEvent{}, false // degenerate or short sample: no verdict
	}
	k := mm.K()
	if t.baseModes == 0 {
		t.baseModes = k
		return DriftEvent{}, false
	}
	if t.baseModes == 1 && k >= 2 {
		return DriftEvent{Time: r.Time, Seq: t.observed, Reason: ReasonModeCount, Stat: float64(k)}, true
	}
	return DriftEvent{}, false
}
