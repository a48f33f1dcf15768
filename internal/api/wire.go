package api

import (
	"fmt"

	"prodpred/internal/calib"
	"prodpred/internal/fleetsched"
	"prodpred/internal/nws"
	"prodpred/internal/predict"
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
	if err := req.SetStrategy(pr.Strategy); err != nil {
		return req, err
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

// LoadJSON is the wire form of predict.MachineReport.
type LoadJSON struct {
	Machine   int          `json:"machine"`
	Mean      float64      `json:"mean"`
	Spread    float64      `json:"spread"`
	Raw       float64      `json:"raw"`
	Staleness float64      `json:"staleness"`
	Widening  float64      `json:"widening"`
	Gaps      nws.GapStats `json:"gaps"`
	// Forecaster tags which distribution forecaster produced this machine's
	// load distribution (tournament competitor, "fallback" or "prior");
	// Components is that distribution as a Gaussian mixture.
	Forecaster string          `json:"forecaster"`
	Components []nws.Component `json:"components,omitempty"`
}

func toLoadJSON(r predict.MachineReport) LoadJSON {
	return LoadJSON{
		Machine: r.Machine, Mean: r.Load.Mean, Spread: r.Load.Spread,
		Raw: r.Raw, Staleness: r.Staleness, Widening: r.Widening,
		Gaps: r.Gaps, Forecaster: r.Forecaster, Components: r.Components,
	}
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
	RawSpread        float64      `json:"raw_spread"`
	CalibrationScale float64      `json:"calibration_scale"`
	Degraded         bool         `json:"degraded"`
	PartitionRows    []int        `json:"partition_rows"`
	BWMean           float64      `json:"bw_mean"`
	BWSpread         float64      `json:"bw_spread"`
	BWGaps           nws.GapStats `json:"bw_gaps"`
	// Dist is the distribution-valued prediction (quantile grid, forecaster
	// tag, requested intervals); omitted when the request asked for no
	// levels, since only then is the grid computed.
	Dist *predict.PredictionDist `json:"dist,omitempty"`
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
	Platform    string         `json:"platform"`
	Time        float64        `json:"time"`
	Outstanding int            `json:"outstanding"`
	Accuracy    calib.Snapshot `json:"accuracy"`
}

// AccuracyResponse is the GET /accuracy payload.
type AccuracyResponse struct {
	Platforms []AccuracyPlatform `json:"platforms"`
}

// HealthMachine is one machine's entry in the GET /healthz payload.
type HealthMachine struct {
	Machine   int          `json:"machine"`
	Staleness float64      `json:"staleness"`
	Gaps      nws.GapStats `json:"gaps"`
}

// HealthPlatform is one platform's entry in the GET /healthz payload.
type HealthPlatform struct {
	Platform string          `json:"platform"`
	Time     float64         `json:"time"`
	Degraded bool            `json:"degraded"`
	Machines []HealthMachine `json:"machines"`
	BWGaps   nws.GapStats    `json:"bw_gaps"`
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

// ScheduleRequest is the POST /schedule body: jobs to place, and the
// placement policy of this round.
type ScheduleRequest struct {
	Jobs []fleetsched.JobSpec `json:"jobs"`
	// Policy is "mean", "quantile", or "upper" (empty = "quantile").
	Policy string `json:"policy,omitempty"`
	// Quantile is the placement quantile, in (0,1) (0 =
	// fleetsched.DefaultQuantile).
	Quantile float64 `json:"quantile,omitempty"`
}

// ScheduleResponse answers POST /schedule.
type ScheduleResponse struct {
	Policy     string                 `json:"policy"`
	Quantile   float64                `json:"quantile"`
	Placements []fleetsched.Placement `json:"placements"`
	// Unplaced counts submitted jobs no tenant could be scored for
	// (they are dropped, not queued).
	Unplaced int `json:"unplaced"`
}
