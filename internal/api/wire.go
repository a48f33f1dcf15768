package api

import (
	"fmt"

	"prodpred/internal/calib"
	"prodpred/internal/nws"
	"prodpred/internal/predict"
	"prodpred/internal/sched"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
)

// PredictRequest is the wire form of predict.Request.
type PredictRequest struct {
	Platform     string `json:"platform"`
	N            int    `json:"n"`
	Iterations   int    `json:"iterations"`
	Strategy     string `json:"strategy"`      // mean | conservative | optimistic | balanced
	MaxStrategy  string `json:"max_strategy"`  // mean | magnitude | probabilistic
	IterationRel string `json:"iteration_rel"` // related | unrelated
	// Levels asks for central prediction intervals (each in (0,1)) read off
	// the calibrated predictive distribution; the response answers them in
	// dist.intervals, in order.
	Levels []float64 `json:"levels,omitempty"`
}

// ToRequest translates the wire enums into the pipeline's typed strategies.
func (pr PredictRequest) ToRequest() (predict.Request, error) {
	req := predict.Request{
		Platform:   pr.Platform,
		N:          pr.N,
		Iterations: pr.Iterations,
		Levels:     pr.Levels,
	}
	switch pr.Strategy {
	case "", "mean":
		req.Strategy = sched.MeanBalanced
	case "conservative":
		req.Strategy = sched.Conservative
	case "optimistic":
		req.Strategy = sched.Optimistic
	case "balanced":
		req.TimeBalanced = true
	default:
		return req, fmt.Errorf("unknown strategy %q", pr.Strategy)
	}
	switch pr.MaxStrategy {
	case "", "mean":
		req.MaxStrategy = stochastic.LargestMean
	case "magnitude":
		req.MaxStrategy = stochastic.LargestMagnitude
	case "probabilistic":
		req.MaxStrategy = stochastic.Probabilistic
	default:
		return req, fmt.Errorf("unknown max_strategy %q", pr.MaxStrategy)
	}
	switch pr.IterationRel {
	case "", "related":
		req.IterationRel = structural.Related
	case "unrelated":
		req.IterationRel = structural.Unrelated
	default:
		return req, fmt.Errorf("unknown iteration_rel %q", pr.IterationRel)
	}
	return req, nil
}

// GapsJSON is the wire form of nws.GapStats.
type GapsJSON struct {
	Clean         int `json:"clean"`
	Recovered     int `json:"recovered"`
	Retries       int `json:"retries"`
	Dropped       int `json:"dropped"`
	Outage        int `json:"outage"`
	TransientLost int `json:"transient_lost"`
	SensorErrors  int `json:"sensor_errors"`
	Missed        int `json:"missed"`
	LongestGap    int `json:"longest_gap"`
}

func toGapsJSON(g nws.GapStats) GapsJSON {
	return GapsJSON{
		Clean: g.Clean, Recovered: g.Recovered, Retries: g.Retries,
		Dropped: g.Dropped, Outage: g.Outage, TransientLost: g.TransientLost,
		SensorErrors: g.SensorErrors, Missed: g.Missed, LongestGap: g.LongestGap,
	}
}

// ComponentJSON is the wire form of nws.Component: one Gaussian mixture
// component of a machine's predictive load distribution.
type ComponentJSON struct {
	Weight float64 `json:"weight"`
	Mean   float64 `json:"mean"`
	Sigma  float64 `json:"sigma"`
}

// LoadJSON is the wire form of predict.MachineReport.
type LoadJSON struct {
	Machine   int      `json:"machine"`
	Mean      float64  `json:"mean"`
	Spread    float64  `json:"spread"`
	Raw       float64  `json:"raw"`
	Staleness float64  `json:"staleness"`
	Widening  float64  `json:"widening"`
	Gaps      GapsJSON `json:"gaps"`
	// Forecaster tags which distribution forecaster produced this machine's
	// load distribution (tournament competitor, "fallback" or "prior");
	// Components is that distribution as a Gaussian mixture.
	Forecaster string          `json:"forecaster"`
	Components []ComponentJSON `json:"components,omitempty"`
}

func toLoadJSON(r predict.MachineReport) LoadJSON {
	l := LoadJSON{
		Machine: r.Machine, Mean: r.Load.Mean, Spread: r.Load.Spread,
		Raw: r.Raw, Staleness: r.Staleness, Widening: r.Widening,
		Gaps: toGapsJSON(r.Gaps), Forecaster: r.Forecaster,
	}
	for _, c := range r.Components {
		l.Components = append(l.Components, ComponentJSON{Weight: c.Weight, Mean: c.Mean, Sigma: c.Sigma})
	}
	return l
}

// DriftJSON is the wire form of calib.DriftEvent.
type DriftJSON struct {
	Time   float64 `json:"time"`
	Seq    int     `json:"seq"`
	Reason string  `json:"reason"`
	Stat   float64 `json:"stat"`
}

// AccuracyJSON is the wire form of calib.Snapshot — the online accuracy
// and calibration state GET /accuracy serves, the one place it leaves the
// daemon.
type AccuracyJSON struct {
	Observed             int         `json:"observed"`
	WindowFill           int         `json:"window_fill"`
	RawCapture           float64     `json:"raw_capture"`
	CalibratedCapture    float64     `json:"calibrated_capture"`
	CumRawCapture        float64     `json:"cum_raw_capture"`
	CumCalibratedCapture float64     `json:"cum_calibrated_capture"`
	MeanSignedRelErr     float64     `json:"mean_signed_rel_err"`
	MeanAbsRelErr        float64     `json:"mean_abs_rel_err"`
	MeanRawWidth         float64     `json:"mean_raw_width"`
	MeanCalibratedWidth  float64     `json:"mean_calibrated_width"`
	Scale                float64     `json:"scale"`
	Target               float64     `json:"target"`
	SinceReset           int         `json:"since_reset"`
	Drifts               []DriftJSON `json:"drifts,omitempty"`
	LastTime             float64     `json:"last_time"`
	// Per-quantile calibration state: the central interval levels the
	// calibrator maintains, the current two-sided multipliers (low/high tail,
	// 1 = uncalibrated), and the windowed probability-integral-transform
	// summary (MeanPIT near 0.5 means the distribution is centered).
	QuantileLevels  []float64 `json:"quantile_levels,omitempty"`
	QuantileScaleLo []float64 `json:"quantile_scale_lo,omitempty"`
	QuantileScaleHi []float64 `json:"quantile_scale_hi,omitempty"`
	// QuantileShift is the conformal median recentering term, as a fraction
	// of the predictive median (0 = unbiased or no evidence yet).
	QuantileShift float64 `json:"quantile_shift"`
	MeanPIT       float64 `json:"mean_pit"`
	PITCount      int     `json:"pit_count"`
}

func toAccuracyJSON(s calib.Snapshot) AccuracyJSON {
	a := AccuracyJSON{
		Observed: s.Observed, WindowFill: s.WindowFill,
		RawCapture: s.RawCapture, CalibratedCapture: s.CalibratedCapture,
		CumRawCapture: s.CumRawCapture, CumCalibratedCapture: s.CumCalibratedCapture,
		MeanSignedRelErr: s.MeanSignedRelErr, MeanAbsRelErr: s.MeanAbsRelErr,
		MeanRawWidth: s.MeanRawWidth, MeanCalibratedWidth: s.MeanCalibratedWidth,
		Scale: s.Scale, Target: s.Target, SinceReset: s.SinceReset,
		LastTime:       s.LastTime,
		QuantileLevels: s.QuantileLevels, QuantileScaleLo: s.QuantileScaleLo,
		QuantileScaleHi: s.QuantileScaleHi, QuantileShift: s.QuantileShift,
		MeanPIT: s.MeanPIT, PITCount: s.PITCount,
	}
	for _, d := range s.Drifts {
		a.Drifts = append(a.Drifts, DriftJSON{Time: d.Time, Seq: d.Seq, Reason: d.Reason, Stat: d.Stat})
	}
	return a
}

// IntervalJSON is the wire form of predict.Interval: one requested central
// prediction interval read off the calibrated predictive distribution.
type IntervalJSON struct {
	Level float64 `json:"level"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
}

// DistJSON is the wire form of predict.PredictionDist: the full predictive
// execution-time distribution behind the two-number mean/spread view.
type DistJSON struct {
	// Levels is the quantile grid, ascending; Raw and Calibrated are the
	// uncalibrated and per-level conformally calibrated execution-time
	// quantiles at those levels, in virtual seconds.
	Levels     []float64 `json:"levels"`
	Raw        []float64 `json:"raw"`
	Calibrated []float64 `json:"calibrated"`
	// Forecaster is the dominant per-machine distribution-forecaster tag.
	Forecaster string `json:"forecaster"`
	// Intervals answers the request's levels, in order.
	Intervals []IntervalJSON `json:"intervals,omitempty"`
}

func toDistJSON(d predict.PredictionDist) *DistJSON {
	if len(d.Calibrated) == 0 {
		return nil
	}
	dj := &DistJSON{
		Levels: d.Levels, Raw: d.Raw, Calibrated: d.Calibrated,
		Forecaster: d.Forecaster,
	}
	for _, iv := range d.Intervals {
		dj.Intervals = append(dj.Intervals, IntervalJSON{Level: iv.Level, Lo: iv.Lo, Hi: iv.Hi})
	}
	return dj
}

// PredictResponse is the wire form of predict.Prediction, less its
// per-machine load reports (Prediction.Loads): those change once per tick,
// not per prediction, and GET /report serves them for the same Time.
type PredictResponse struct {
	Platform string  `json:"platform"`
	Time     float64 `json:"time"`
	// ID names this prediction for the POST /observe feedback call.
	ID     uint64  `json:"id"`
	Mean   float64 `json:"mean"`
	Spread float64 `json:"spread"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	// RawSpread is the uncalibrated half-width; Spread is RawSpread ×
	// CalibrationScale (the mean is never rescaled).
	RawSpread        float64  `json:"raw_spread"`
	CalibrationScale float64  `json:"calibration_scale"`
	Degraded         bool     `json:"degraded"`
	PartitionRows    []int    `json:"partition_rows"`
	BWMean           float64  `json:"bw_mean"`
	BWSpread         float64  `json:"bw_spread"`
	BWGaps           GapsJSON `json:"bw_gaps"`
	// Dist is the distribution-valued prediction (quantile grid, forecaster
	// tag, requested intervals); omitted when the request asked for no
	// levels, since only then is the grid computed.
	Dist *DistJSON `json:"dist,omitempty"`
}

// BatchPredictRequest is the POST /predict/batch payload: up to
// MaxBatchSize independent predict requests answered in one round trip.
// Requests may target different platforms; each platform's group is
// resolved in a single shared-clock visit, so repeated request shapes
// within one virtual tick share a single pipeline evaluation.
type BatchPredictRequest struct {
	Requests []PredictRequest `json:"requests"`
}

// BatchPredictItem is one positional result in a batch response: either an
// embedded PredictResponse or an error string, never both.
type BatchPredictItem struct {
	*PredictResponse
	Error string `json:"error,omitempty"`
}

// BatchPredictResponse is the POST /predict/batch payload: one item per
// request, in request order, plus the count of failed items.
type BatchPredictResponse struct {
	Responses []BatchPredictItem `json:"responses"`
	Errors    int                `json:"errors"`
}

// MaxBatchSize bounds one POST /predict/batch call.
const MaxBatchSize = 1024

// ReportResponse is the GET /report payload: one platform's per-machine
// monitor reports, all read at virtual time Time. Its calibration state is
// GET /accuracy's.
type ReportResponse struct {
	Platform string     `json:"platform"`
	Time     float64    `json:"time"`
	Loads    []LoadJSON `json:"loads"`
}

// ObserveRequest closes the loop on one prediction: the platform that
// issued it, the prediction id, and the measured runtime in seconds.
type ObserveRequest struct {
	Platform string  `json:"platform"`
	ID       uint64  `json:"id"`
	Actual   float64 `json:"actual"`
}

// ObserveResponse acknowledges one observation: the platform, the
// prediction id it consumed, and whether this outcome fired a regime reset
// (one more entry in GET /accuracy's drifts). The calibration state it left
// is GET /accuracy's to report.
type ObserveResponse struct {
	Platform string `json:"platform"`
	ID       uint64 `json:"id"`
	Drifted  bool   `json:"drifted"`
}

// AccuracyPlatform is one platform's entry in the GET /accuracy payload.
type AccuracyPlatform struct {
	Platform    string       `json:"platform"`
	Time        float64      `json:"time"`
	Outstanding int          `json:"outstanding"`
	Accuracy    AccuracyJSON `json:"accuracy"`
}

// AccuracyResponse is the GET /accuracy payload.
type AccuracyResponse struct {
	Platforms []AccuracyPlatform `json:"platforms"`
}

// HealthMachine is one machine's entry in the GET /healthz payload.
type HealthMachine struct {
	Machine   int      `json:"machine"`
	Staleness float64  `json:"staleness"`
	Gaps      GapsJSON `json:"gaps"`
}

// HealthPlatform is one platform's entry in the GET /healthz payload.
type HealthPlatform struct {
	Platform string          `json:"platform"`
	Time     float64         `json:"time"`
	Degraded bool            `json:"degraded"`
	Machines []HealthMachine `json:"machines"`
	BWGaps   GapsJSON        `json:"bw_gaps"`
}

// HealthResponse is the GET /healthz payload.
type HealthResponse struct {
	Status    string           `json:"status"` // ok | degraded
	Platforms []HealthPlatform `json:"platforms"`
}

// MaxAdvanceSeconds bounds one manual clock step, POST /advance. A step
// holds the tenant's clock lock exclusively while every monitor catches up,
// so an unbounded one stalls the tenant for as long as the caller likes;
// 3600 virtual seconds is 720 sensor periods, more than the 512-sample
// history keeps. Step again to go further.
const MaxAdvanceSeconds = 3600

// checkAdvance validates a requested clock step.
func checkAdvance(seconds float64) error {
	if !(seconds > 0) {
		return fmt.Errorf("seconds must be positive, got %g", seconds)
	}
	if seconds > MaxAdvanceSeconds {
		return fmt.Errorf("seconds %g exceeds limit %d", seconds, MaxAdvanceSeconds)
	}
	return nil
}

// AdvanceRequest is the POST /advance payload: a manual virtual-clock step
// for one platform (or all, when Platform is empty).
type AdvanceRequest struct {
	Platform string  `json:"platform"`
	Seconds  float64 `json:"seconds"`
}

// MaxScheduleJobs bounds one POST /schedule submission.
const MaxScheduleJobs = 256

// ScheduleJob is one job in a POST /schedule body.
type ScheduleJob struct {
	// Name optionally labels the job in /schedule/status listings.
	Name string `json:"name,omitempty"`
	// N is the SOR grid size (N x N); Iterations the iteration count.
	N          int `json:"n"`
	Iterations int `json:"iterations"`
	// Deadline is an optional absolute virtual-seconds completion
	// deadline on the fleet's shared timeline (0 = none).
	Deadline float64 `json:"deadline,omitempty"`
}

// ScheduleRequest is the POST /schedule body: jobs to place, and the
// placement policy of this round.
type ScheduleRequest struct {
	Jobs []ScheduleJob `json:"jobs"`
	// Policy is "mean", "quantile", or "upper" (empty = "quantile").
	Policy string `json:"policy,omitempty"`
	// Quantile is the placement quantile, in (0,1) (0 =
	// fleetsched.DefaultQuantile).
	Quantile float64 `json:"quantile,omitempty"`
}

// PlacementJSON reports where one job landed.
type PlacementJSON struct {
	JobID         uint64  `json:"job_id"`
	Name          string  `json:"name,omitempty"`
	Tenant        string  `json:"tenant"`
	Policy        string  `json:"policy"`
	Quantile      float64 `json:"quantile"`
	Score         float64 `json:"score"`
	PredictedMean float64 `json:"predicted_mean"`
	PredictedExec float64 `json:"predicted_exec"`
	PredictionID  uint64  `json:"prediction_id"`
	Time          float64 `json:"time"`
	Deadline      float64 `json:"deadline,omitempty"`
	Skips         int     `json:"skips,omitempty"`
}

// ScheduleResponse answers POST /schedule.
type ScheduleResponse struct {
	Policy     string          `json:"policy"`
	Quantile   float64         `json:"quantile"`
	Placements []PlacementJSON `json:"placements"`
	// Unplaced counts submitted jobs no tenant could be scored for
	// (they are dropped, not queued).
	Unplaced int `json:"unplaced"`
}
