package calib

import (
	"fmt"

	"prodpred/internal/dist"
)

// WindowRec is one windowed outcome in reduced form: what the tracker's
// rolling window holds and what State carries across a snapshot.
type WindowRec struct {
	ID       uint64
	Time     float64
	Z        float64 // standardized signed residual (actual-mean)/σ_raw
	Score    float64 // nonconformity |actual-mean|/halfwidth_raw
	Signed   float64 // signed relative error (actual-mean)/actual
	Abs      float64 // |Signed|
	RawW     float64 // raw interval full width
	CalW     float64 // calibrated interval full width
	RawIn    bool
	CalIn    bool
	Armed    bool // true once this outcome counted toward drift detection
	Excluded bool // true when the raw prediction had no usable spread

	// Distribution-valued fields, populated only when the outcome carried a
	// raw quantile grid with positive offsets at every level (Qok). The
	// side offsets and the actual are stored relative to the predictive
	// median so the calibrator can re-score them under any candidate
	// recentering shift.
	Qok  bool
	QsLo []float64 // per interval level, (median - lo_L) / median
	QsHi []float64 // per interval level, (hi_L - median) / median
	QRel float64   // actual / median
	Pit  float64   // realized quantile of actual under the raw grid
}

// State is the complete dynamic state of a Tracker in portable form, for
// the snapshot/restore path: a Tracker evolves only through Observe, so
// exporting this state and importing it into a fresh Tracker yields
// byte-identical future behavior for the same observation sequence.
type State struct {
	Window []WindowRec
	Drifts []DriftEvent

	Observed int
	CumRawIn int
	CumCalIn int
	LastTime float64

	// Per-regime state (cleared by drift resets).
	SinceReset int
	Scale      float64
	BaseN      int
	BaseSum    float64
	CusumPos   float64
	CusumNeg   float64
	SinceCheck int
	BaseModes  int
}

// clone returns r with its own copies of the side-offset slices, so a State
// and the tracker it came from (or went into) never share storage.
func (r WindowRec) clone() WindowRec {
	r.QsLo = append([]float64(nil), r.QsLo...)
	r.QsHi = append([]float64(nil), r.QsHi...)
	return r
}

// ExportState returns a consistent copy of the tracker's full dynamic
// state.
func (t *Tracker) ExportState() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := State{
		Window:     make([]WindowRec, len(t.window)),
		Drifts:     append([]DriftEvent(nil), t.drifts...),
		Observed:   t.observed,
		CumRawIn:   t.cumRawIn,
		CumCalIn:   t.cumCalIn,
		LastTime:   t.lastTime,
		SinceReset: t.sinceReset,
		Scale:      t.scale,
		BaseN:      t.baseN,
		BaseSum:    t.baseSum,
		CusumPos:   t.cusumPos,
		CusumNeg:   t.cusumNeg,
		SinceCheck: t.sinceCheck,
		BaseModes:  t.baseModes,
	}
	for i, r := range t.window {
		st.Window[i] = r.clone()
	}
	return st
}

// ImportState replaces the tracker's dynamic state with st. A state from
// outside the program is checked first: its window must fit in Window, its
// regime length must not be negative and its scale must be positive.
func (t *Tracker) ImportState(st State) error {
	if len(st.Window) > Window {
		return fmt.Errorf("calib: state window %d exceeds the window of %d", len(st.Window), Window)
	}
	if st.SinceReset < 0 {
		return fmt.Errorf("calib: state since-reset count %d is negative", st.SinceReset)
	}
	if !(st.Scale > 0) {
		return fmt.Errorf("calib: state scale %g must be positive", st.Scale)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.window = make([]WindowRec, len(st.Window))
	for i, r := range st.Window {
		t.window[i] = r.clone()
		t.window[i].Qok = r.Qok && len(r.QsLo) == len(dist.IntervalLevels) && len(r.QsHi) == len(dist.IntervalLevels)
	}
	t.drifts = append([]DriftEvent(nil), st.Drifts...)
	t.observed = st.Observed
	t.cumRawIn = st.CumRawIn
	t.cumCalIn = st.CumCalIn
	t.lastTime = st.LastTime
	t.sinceReset = st.SinceReset
	t.scale = st.Scale
	t.baseN = st.BaseN
	t.baseSum = st.BaseSum
	t.cusumPos = st.CusumPos
	t.cusumNeg = st.CusumNeg
	t.sinceCheck = st.SinceCheck
	t.baseModes = st.BaseModes
	// The median shift and per-level quantile multipliers are a pure
	// function of the window, so recompute rather than serialize them — a
	// window with no distribution-valued record lands on zero shift and
	// all-ones multipliers exactly as a fresh tracker would.
	t.rescaleQuantilesLocked()
	return nil
}
