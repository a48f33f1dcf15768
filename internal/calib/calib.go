// Package calib closes the prediction loop: it tracks, online, whether the
// stochastic intervals the pipeline emits actually capture observed
// runtimes, and corrects them when they do not.
//
// The paper's whole validation story is *capture* — §4 reports that the
// ±2σ stochastic intervals contain the actual execution time ~80-100% of
// the time, against a 38.6% maximum error for point predictions. That
// analysis is offline; a serving system must run it continuously. A
// Tracker ingests (prediction, actual) outcome pairs per platform and
// maintains three coupled mechanisms:
//
//  1. An outcome recorder: rolling windows of interval capture rate,
//     signed relative error, and interval-width statistics, plus
//     cumulative counters, for the /accuracy diagnostics.
//  2. An adaptive calibrator: a conformal-style multiplier on the ±2σ
//     half-width, chosen from the rolling empirical quantiles of the
//     normalized nonconformity score |actual - mean| / halfwidth. When
//     capture sits comfortably above the target the quantile drops below
//     1 and intervals tighten; when capture dips the quantile rises and
//     intervals widen. A floor/ceiling keeps the interval from ever
//     collapsing to a point value or exploding without bound.
//  3. A regime-drift detector: a two-sided CUSUM over standardized
//     forecast residuals plus a mode-count check (internal/modal) that
//     flags Platform-2-style transitions from single-mode to bursty
//     multi-modal behaviour (the §2.1 normality caveat). A detected
//     changepoint *resets* calibration state instead of averaging across
//     regimes.
//
// All state evolves only through Observe, so the Tracker is a pure function
// of the observation sequence: same seed + same observation order ⇒
// byte-identical state, including under concurrent readers. The Tracker is
// safe for concurrent use.
package calib

import (
	"math"
	"sync"

	"prodpred/internal/dist"
	"prodpred/internal/stats"
	"prodpred/internal/stochastic"
)

// The calibrator's tuning, the same for every Tracker.
const (
	// TargetCapture is the interval capture rate the calibrator aims for:
	// the paper's two-σ interval claim (~95% nominal coverage, §2.1).
	TargetCapture = 0.95
	// Window is the rolling-outcome window size.
	Window = 64
	// MinObserved is how many outcomes (since the last regime reset) must
	// accumulate before the calibrator moves the scale off 1 and the drift
	// detector arms. It doubles as the residual-baseline sample size.
	MinObserved = 8
	// ScaleFloor and ScaleCeil clamp the half-width multiplier so a
	// calibrated interval can never collapse to a point value (floor) nor
	// widen without bound (ceiling).
	ScaleFloor = 0.5
	ScaleCeil  = 3.0
	// CUSUMSlack is the per-observation allowance k (in residual σ units)
	// subtracted before accumulating; CUSUMLimit is the decision threshold
	// h. Larger values make the detector slower and more conservative.
	CUSUMSlack = 0.5
	CUSUMLimit = 8.0
	// ModeCheck is how often (in outcomes) the modal mode-count check
	// runs; MaxModes is the largest mixture it will fit.
	ModeCheck = 16
	MaxModes  = 3
	// QScaleFloor and QScaleCeil clamp the per-level quantile multipliers
	// (see quantile.go). The floor sits below ScaleFloor because a single
	// well-placed quantile offset may legitimately shrink more than a
	// whole symmetric interval; the ceiling is ScaleCeil's.
	QScaleFloor = 0.1
	QScaleCeil  = 3.0
)

// Config declares nothing: the calibrator's tuning is the constants above.
// It and New's error, always nil, stay only because the benchmark harness
// calls New(Config{}); both go when it stops.
type Config struct{}

// Outcome is one observed (prediction, actual) pair.
type Outcome struct {
	// ID is the prediction's issue identifier (monotone per service).
	ID uint64
	// Time is the virtual time the outcome was observed at, in virtual
	// seconds.
	Time float64
	// Raw is the uncalibrated stochastic prediction the model produced.
	Raw stochastic.Value
	// Calibrated is the interval actually returned to the caller (Raw with
	// the then-current half-width multiplier applied).
	Calibrated stochastic.Value
	// Actual is the measured runtime, in the same virtual seconds as the
	// prediction.
	Actual float64
	// RawQuantiles, when present, are the uncalibrated predictive quantiles
	// at dist.GridLevels (distribution-valued predictions). They feed the
	// per-level quantile calibrator and the realized-quantile (PIT) scorer;
	// nil for legacy point-plus-spread outcomes.
	RawQuantiles []float64
}

// DriftEvent records one detected regime change.
type DriftEvent struct {
	// Time is the virtual time of the outcome that triggered detection, in
	// virtual seconds.
	Time float64 `json:"time"`
	// Seq is the 1-based count of outcomes observed when the event fired.
	Seq int `json:"seq"`
	// Reason is "cusum" (sustained residual shift) or "mode-count"
	// (residuals turned multi-modal).
	Reason string `json:"reason"`
	// Stat is the detector statistic at the trigger: the CUSUM excursion,
	// or the fitted mode count.
	Stat float64 `json:"stat"`
}

// Snapshot is a consistent read of a Tracker's accuracy and calibration
// state — the /accuracy payload, encoded as it stands: its fields are in
// wire order.
type Snapshot struct {
	// Observed is the total number of outcomes ingested.
	Observed int `json:"observed"`
	// WindowFill is the current rolling-window population.
	WindowFill int `json:"window_fill"`
	// RawCapture / CalibratedCapture are capture rates over the rolling
	// window for the raw and calibrated intervals.
	RawCapture        float64 `json:"raw_capture"`
	CalibratedCapture float64 `json:"calibrated_capture"`
	// CumRawCapture / CumCalibratedCapture are the same rates over every
	// outcome ever observed.
	CumRawCapture        float64 `json:"cum_raw_capture"`
	CumCalibratedCapture float64 `json:"cum_calibrated_capture"`
	// MeanSignedRelErr is the windowed mean of (actual - mean)/actual —
	// negative when the model over-predicts.
	MeanSignedRelErr float64 `json:"mean_signed_rel_err"`
	// MeanAbsRelErr is the windowed mean of |actual - mean|/actual.
	MeanAbsRelErr float64 `json:"mean_abs_rel_err"`
	// MeanRawWidth / MeanCalibratedWidth are windowed mean interval full
	// widths (2 × spread), in virtual seconds.
	MeanRawWidth        float64 `json:"mean_raw_width"`
	MeanCalibratedWidth float64 `json:"mean_calibrated_width"`
	// Scale is the current half-width multiplier.
	Scale float64 `json:"scale"`
	// Target is the capture target, TargetCapture.
	Target float64 `json:"target"`
	// SinceReset counts outcomes since the last regime reset.
	SinceReset int `json:"since_reset"`
	// Drifts lists every detected regime change, oldest first.
	Drifts []DriftEvent `json:"drifts,omitempty"`
	// LastTime is the virtual time of the most recent outcome, in virtual
	// seconds (0 before any).
	LastTime float64 `json:"last_time"`
	// QuantileLevels lists the central interval levels the per-quantile
	// calibrator maintains; QuantileScaleLo/Hi are the current two-sided
	// multipliers, parallel to it (1 until enough distribution-valued
	// outcomes accumulate in the regime). QuantileShift is the conformal
	// median recentering term, as a fraction of the predictive median (0
	// when unbiased or without evidence): the calibrated grid's median is
	// raw median × (1 + QuantileShift).
	QuantileLevels  []float64 `json:"quantile_levels,omitempty"`
	QuantileScaleLo []float64 `json:"quantile_scale_lo,omitempty"`
	QuantileScaleHi []float64 `json:"quantile_scale_hi,omitempty"`
	QuantileShift   float64   `json:"quantile_shift"`
	// MeanPIT is the windowed mean realized quantile over
	// distribution-valued outcomes — 0.5 when the predictive distribution
	// is centered on the actuals. PITCount is how many windowed outcomes
	// carried a grid.
	MeanPIT  float64 `json:"mean_pit"`
	PITCount int     `json:"pit_count"`
}

// Tracker is the per-platform online accuracy tracker, interval
// calibrator, and regime-drift detector. Safe for concurrent use.
type Tracker struct {
	mu sync.Mutex

	window []WindowRec
	drifts []DriftEvent

	observed int
	cumRawIn int
	cumCalIn int
	lastTime float64

	// Per-regime state, cleared by resetLocked.
	sinceReset int
	scale      float64
	qLo, qHi   []float64 // per-interval-level quantile multipliers
	// qShift is the conformal median shift (fraction of median). Unlike
	// the fields above it is full-window state: drift resets leave it in
	// place because model bias outlives load regimes.
	qShift     float64
	baseN      int     // residual-baseline sample count
	baseSum    float64 // residual-baseline running sum
	cusumPos   float64
	cusumNeg   float64
	sinceCheck int
	baseModes  int // mode count at regime start (0 = not yet fitted)

	// scratch is the one sample buffer of an Observe: each of its quantiles
	// fills it and selects its two order statistics in place (leaving it
	// permuted, never sorted), and a mode-count check whose verdict can
	// still matter fits it. Nothing in it outlives the call.
	scratch []float64
}

// New returns a fresh Tracker. The error is always nil (see Config).
func New(Config) (*Tracker, error) {
	t := &Tracker{scale: 1}
	t.qLo = make([]float64, len(dist.IntervalLevels))
	t.qHi = make([]float64, len(dist.IntervalLevels))
	for i := range dist.IntervalLevels {
		t.qLo[i], t.qHi[i] = 1, 1
	}
	return t, nil
}

// Calibrate applies the current multiplier to a raw prediction: the mean is
// untouched, the half-width is scaled. Point values pass through unchanged
// (there is no spread to correct).
func (t *Tracker) Calibrate(raw stochastic.Value) stochastic.Value {
	cal, _ := t.Overlay(raw, nil)
	return cal
}

// Overlay applies both calibrations under one hold of the tracker, so a
// prediction's two-number value and its quantile grid always come from the
// same state: raw as Calibrate returns it, and rawQ as
// calibrateQuantilesLocked rewrites it into a fresh slice (nil when rawQ is
// nil).
func (t *Tracker) Overlay(raw stochastic.Value, rawQ []float64) (cal stochastic.Value, calQ []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rawQ != nil {
		calQ = t.calibrateQuantilesLocked(make([]float64, 0, len(rawQ)), rawQ)
	}
	if raw.IsPoint() {
		return raw, calQ
	}
	return stochastic.Value{Mean: raw.Mean, Spread: t.scale * raw.Spread}, calQ
}

// Scale returns the current half-width multiplier (1 after a reset).
func (t *Tracker) Scale() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.scale
}

// Observe ingests one outcome: records it in the rolling windows, updates
// the conformal multiplier, and runs the drift detectors. It returns the
// drift event if this outcome triggered a regime reset.
func (t *Tracker) Observe(o Outcome) (ev DriftEvent, drifted bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev, drifted = t.detectLocked(t.recordLocked(o))
	if drifted {
		t.drifts = append(t.drifts, ev)
		t.resetLocked()
		return ev, true
	}
	t.rescaleLocked()
	t.rescaleQuantilesLocked()
	return DriftEvent{}, false
}

// maxZ bounds a standardized residual. An actual near the float64 ceiling
// would overflow it to ±Inf, and the regime baseline and the CUSUM sums with
// it, which no drift verdict or GET /accuracy could then be read from; a
// residual this far out is past CUSUMLimit whatever its size.
const maxZ = 1e6

// recordLocked reduces o to its window record, appends it to the rolling
// window and the counters, and returns the appended record.
func (t *Tracker) recordLocked(o Outcome) *WindowRec {
	r := WindowRec{ID: o.ID, Time: o.Time}
	r.RawIn = o.Raw.Contains(o.Actual)
	r.CalIn = o.Calibrated.Contains(o.Actual)
	r.RawW = 2 * o.Raw.Spread
	r.CalW = 2 * o.Calibrated.Spread
	if o.Actual != 0 {
		r.Signed = (o.Actual - o.Raw.Mean) / math.Abs(o.Actual)
		r.Abs = math.Abs(r.Signed)
	}
	if o.Raw.Spread > 0 {
		r.Score = math.Abs(o.Actual-o.Raw.Mean) / o.Raw.Spread
		r.Z = math.Max(-maxZ, math.Min(maxZ, (o.Actual-o.Raw.Mean)/o.Raw.Sigma()))
	} else {
		// A point prediction carries no interval to calibrate; keep it for
		// the capture statistics but exclude it from score quantiles and
		// residual standardization.
		r.Excluded = true
	}
	if len(o.RawQuantiles) == dist.NumLevels {
		quantileRec(&r, o)
	}

	t.observed++
	t.sinceReset++
	t.lastTime = o.Time
	if r.RawIn {
		t.cumRawIn++
	}
	if r.CalIn {
		t.cumCalIn++
	}
	t.window = append(t.window, r)
	if len(t.window) > Window {
		t.window = t.window[1:]
	}
	return &t.window[len(t.window)-1]
}

// rescaleLocked recomputes the conformal multiplier from the nonconformity
// scores of the current regime (the post-reset portion of the window).
func (t *Tracker) rescaleLocked() {
	scores := t.scratch[:0]
	regime := t.regimeWindowLocked()
	for i := range regime {
		if !regime[i].Excluded {
			scores = append(scores, regime[i].Score)
		}
	}
	t.scratch = scores
	n := len(scores)
	if n < MinObserved {
		t.scale = 1
		return
	}
	// Split-conformal quantile level with the finite-sample correction
	// ceil((n+1)·target)/n, clamped to the sample maximum.
	level := math.Ceil(float64(n+1)*TargetCapture) / float64(n)
	if level > 1 {
		level = 1
	}
	t.scale = math.Min(math.Max(stats.QuantileInPlace(scores, level), ScaleFloor), ScaleCeil)
}

// regimeWindowLocked returns the suffix of the window belonging to the
// current regime (the sinceReset most recent outcomes).
func (t *Tracker) regimeWindowLocked() []WindowRec {
	if t.sinceReset >= len(t.window) {
		return t.window
	}
	return t.window[len(t.window)-t.sinceReset:]
}

// resetLocked clears all per-regime calibration state after a detected
// changepoint, so the next regime is calibrated from its own outcomes
// instead of an average across regimes. Cumulative counters and the drift
// log survive.
func (t *Tracker) resetLocked() {
	t.sinceReset = 0
	t.scale = 1
	// qShift deliberately survives: it tracks model bias, which is a
	// property of the structural model vs the platform, not of the load
	// regime that just changed (it recomputes from the full window).
	for i := range dist.IntervalLevels {
		t.qLo[i], t.qHi[i] = 1, 1
	}
	t.baseN = 0
	t.baseSum = 0
	t.cusumPos = 0
	t.cusumNeg = 0
	t.sinceCheck = 0
	t.baseModes = 0
}

// ObservedCount returns how many outcomes have been ingested: what
// Snapshot().Observed reads, without copying the state.
func (t *Tracker) ObservedCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.observed
}

// DriftCount returns how many regime changes have been detected: what
// len(Snapshot().Drifts) reads, without copying the state.
func (t *Tracker) DriftCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.drifts)
}

// Snapshot returns a consistent copy of the accuracy and calibration state.
func (t *Tracker) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{
		Observed:        t.observed,
		WindowFill:      len(t.window),
		Scale:           t.scale,
		QuantileLevels:  append([]float64(nil), dist.IntervalLevels...),
		QuantileScaleLo: append([]float64(nil), t.qLo...),
		QuantileScaleHi: append([]float64(nil), t.qHi...),
		QuantileShift:   t.qShift,
		Target:          TargetCapture,
		SinceReset:      t.sinceReset,
		LastTime:        t.lastTime,
		Drifts:          append([]DriftEvent(nil), t.drifts...),
	}
	if t.observed > 0 {
		s.CumRawCapture = float64(t.cumRawIn) / float64(t.observed)
		s.CumCalibratedCapture = float64(t.cumCalIn) / float64(t.observed)
	}
	n := len(t.window)
	if n == 0 {
		return s
	}
	var rawIn, calIn int
	for _, r := range t.window {
		if r.RawIn {
			rawIn++
		}
		if r.CalIn {
			calIn++
		}
		if r.Qok {
			s.MeanPIT += r.Pit
			s.PITCount++
		}
		s.MeanSignedRelErr += r.Signed
		s.MeanAbsRelErr += r.Abs
		s.MeanRawWidth += r.RawW
		s.MeanCalibratedWidth += r.CalW
	}
	if s.PITCount > 0 {
		s.MeanPIT /= float64(s.PITCount)
	}
	fn := float64(n)
	s.RawCapture = float64(rawIn) / fn
	s.CalibratedCapture = float64(calIn) / fn
	s.MeanSignedRelErr /= fn
	s.MeanAbsRelErr /= fn
	s.MeanRawWidth /= fn
	s.MeanCalibratedWidth /= fn
	return s
}
