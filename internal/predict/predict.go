// Package predict is the concurrent prediction-service core: the paper's
// monitor -> forecast -> model -> schedule -> predict pipeline (§2.1-§2.3)
// packaged as a long-lived, goroutine-safe Service instead of a hand-wired
// experiment loop.
//
// A Service owns one simulated production platform: per-machine NWS CPU
// monitors (optionally wrapped with deterministic sensor faults from
// internal/faults), lazily created bandwidth monitors, and a shared virtual
// clock. Callers advance the clock as simulated time passes and issue
// concurrent Predict calls; each call reads the gap-aware monitor reports,
// chooses (or reuses) a strip partition, evaluates the SOR structural
// model, and returns the stochastic execution-time prediction together
// with per-machine load reports and gap/staleness diagnostics.
//
// The loop is closed online: every Prediction carries an ID, and Observe
// feeds the measured runtime back to the platform's calib.Tracker, which
// tracks interval capture, adapts a conformal half-width multiplier, and
// resets itself on detected load-regime drift. Predict returns the
// calibrated interval together with the raw one and the calibration
// diagnostics behind it.
//
// The experiments harness, cmd/sorpredict, and the cmd/predictd HTTP
// daemon are all thin layers over this one seam.
//
// Units: every time in this package's API — clock positions, predicted
// execution times, observed runtimes — is in virtual seconds on the
// platform's simulated clock. Wall-clock time appears only in the optional
// telemetry (the predict_stage_duration_seconds histograms record
// wall-clock stage latency). Telemetry never feeds back into predictions:
// same-seed services are bit-identical with metrics on or off.
//
// Thread-safety: Service and Registry are safe for concurrent use; plain
// data types (Request, Prediction, MachineReport) are values that the
// caller owns once returned and need no locking.
package predict

import (
	"fmt"

	"prodpred/internal/dist"
	"prodpred/internal/nws"
	"prodpred/internal/sched"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
)

// DefaultCPUPrior is the conservative fallback prior for a CPU monitor that
// has never recorded a single measurement: half availability ± the full
// range, the weakest defensible claim about a production machine. It is the
// last link of the RobustReport fallback chain (forecast -> running mean ->
// prior) everywhere the pipeline reads CPU availability.
var DefaultCPUPrior = stochastic.New(0.5, 0.5)

// Request names one prediction: which platform to predict on, the SOR
// problem (grid size and iteration count), and how the pipeline should
// resolve its stochastic choices. Zero values give the paper's defaults:
// mean-balanced partitioning, largest-mean group Max, related iteration
// combination.
type Request struct {
	// Platform optionally names the target platform; a Service rejects a
	// mismatched name and a Registry routes on it. Empty means "whatever
	// platform this Service owns".
	Platform string
	// N is the grid size (N x N).
	N int
	// Iterations is the SOR iteration count per run.
	Iterations int
	// Strategy selects how the partitioner reads the stochastic load
	// forecasts (mean-balanced, conservative, optimistic).
	Strategy sched.Strategy
	// TimeBalanced switches from capacity partitioning under Strategy to
	// the AppLeS-style time-balanced refinement (compute + ghost-row
	// communication equalized).
	TimeBalanced bool
	// MaxStrategy resolves the structural model's group Max over
	// processors (§2.3.3).
	MaxStrategy stochastic.MaxStrategy
	// IterationRel tags the combination across iterations as related
	// (paper, conservative) or unrelated (root-sum-square).
	IterationRel structural.Relation
	// Partition, when non-nil, pins a previously chosen decomposition so a
	// run series predicts against a fixed schedule; when nil the Service
	// partitions from the current load reports.
	Partition *sor.Partition
	// Levels optionally lists central interval levels (each in (0,1)) the
	// caller wants read off the calibrated predictive distribution;
	// Prediction.Dist.Intervals answers them in order. Levels are part of
	// the per-request overlay, not the pipeline: they never affect the
	// tick cache key or the point prediction. A non-empty Levels implies
	// Distribution.
	Levels []float64
	// Distribution asks for the full quantile grid (Prediction.Dist) even
	// when no interval levels are requested. The Monte Carlo transform
	// behind the grid costs distSamples structural-model evaluations, so
	// it runs lazily: the first distribution-requesting prediction per
	// (grid size, tick) pays it and the tick cache shares its sorted
	// draws, which each request scales by its own iteration count;
	// requests that leave both Distribution and Levels unset keep the
	// legacy two-number payload and never pay.
	Distribution bool
}

// SetStrategy sets req's partitioning from its name on the wire and the
// command line: "mean" (or "") for MeanBalanced, "conservative",
// "optimistic", or "balanced" for the AppLeS-style time-balanced
// refinement.
func (req *Request) SetStrategy(name string) error {
	switch name {
	case "", "mean":
		req.Strategy = sched.MeanBalanced
	case "conservative":
		req.Strategy = sched.Conservative
	case "optimistic":
		req.Strategy = sched.Optimistic
	case "balanced":
		req.TimeBalanced = true
	default:
		return fmt.Errorf("unknown strategy %q", name)
	}
	return nil
}

// MachineReport is one machine's contribution to a Prediction: the load
// value the model consumed plus the monitor diagnostics behind it.
type MachineReport struct {
	Machine int
	// Load is the stochastic CPU-availability value used for this machine.
	Load stochastic.Value
	// Raw is the instantaneous true availability at prediction time — a
	// simulation-side diagnostic the experiments plot against forecasts.
	Raw float64
	// Staleness is the monitor's effective staleness in sensor periods
	// (zero on a healthy measurement stream).
	Staleness float64
	// Widening is the staleness spread multiplier already baked into Load,
	// nws.StalenessFactor(Staleness) — reported so consumers can separate
	// sensor-gap widening from the calibration multiplier that composes
	// on top of it.
	Widening float64
	// Gaps counts the monitor's per-fault-class sensor outcomes so far.
	Gaps nws.GapStats
	// Forecaster tags which distribution forecaster produced this machine's
	// predictive load distribution: a tournament competitor
	// (nws.DistForecasterNames) or a fallback-chain tag ("fallback",
	// "prior").
	Forecaster string
	// Components summarize the machine's predictive load distribution as a
	// Gaussian mixture (a single component for normal-shaped reports).
	Components []nws.Component
}

// Interval is one central prediction interval read off the calibrated
// predictive distribution.
type Interval struct {
	// Level is the central interval level in (0,1) (e.g. 0.95).
	Level float64 `json:"level"`
	// Lo and Hi are the interval endpoints in virtual seconds.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// PredictionDist is the distribution payload of a Prediction: the full
// predictive execution-time distribution the legacy Value/Spread pair is a
// two-number view of.
//
// Raw is produced by a Monte Carlo transform of the per-machine load
// distributions: the structural model is evaluated over a fixed
// Latin-hypercube matrix of joint availability draws (machines and
// bandwidth sampled independently through their forecast quantile grids)
// for the time of one phase pair, and the execution-time quantiles are read
// off that sample scaled by the request's phase-pair count. The sorted draws
// are worked out once per grid size and tick; every prediction reads its own
// Raw off them. Calibrated recenters the grid by the tracker's conformal median shift
// and applies its per-level two-sided conformal multipliers.
type PredictionDist struct {
	// Levels is the quantile grid, ascending (dist.GridLevels).
	Levels []float64 `json:"levels"`
	// Raw are the uncalibrated execution-time quantiles at Levels,
	// nondecreasing, in virtual seconds.
	Raw []float64 `json:"raw"`
	// Calibrated are the per-level conformally calibrated quantiles at
	// Levels, nondecreasing, in virtual seconds.
	Calibrated []float64 `json:"calibrated"`
	// Forecaster is the dominant per-machine distribution-forecaster tag
	// behind this prediction (ties break toward the lower machine index);
	// per-machine tags are on Prediction.Loads.
	Forecaster string `json:"forecaster"`
	// Intervals answers Request.Levels in order, read off Calibrated.
	Intervals []Interval `json:"intervals,omitempty"`
}

// Quantile interpolates the calibrated predictive distribution at p,
// clamping outside the grid. It returns false before the distribution
// pipeline has produced a grid (zero-valued Dist).
func (d PredictionDist) Quantile(p float64) (float64, bool) {
	if len(d.Calibrated) != dist.NumLevels {
		return 0, false
	}
	return dist.GridQuantile(d.Calibrated, p), true
}

// Prediction is the answer to one Request.
type Prediction struct {
	// ID identifies this prediction for the Observe feedback path. IDs are
	// issued monotonically per service, starting at 1.
	ID uint64
	// Value is the stochastic execution-time prediction in virtual
	// seconds, with the current calibration multiplier applied to its
	// half-width. Until outcomes accumulate (and after every regime reset)
	// the multiplier is 1 and Value equals Raw.
	Value stochastic.Value
	// Raw is the uncalibrated model prediction, in virtual seconds.
	Raw stochastic.Value
	// CalibrationScale is the half-width multiplier Value was produced
	// with (Value.Spread = CalibrationScale × Raw.Spread).
	CalibrationScale float64
	// Partition is the strip decomposition the model was evaluated
	// against (the pinned one, or the one chosen from current loads).
	Partition *sor.Partition
	// Time is the virtual time the prediction was issued at, in virtual
	// seconds.
	Time float64
	// Loads reports per-machine load values and monitor diagnostics.
	Loads []MachineReport
	// Bandwidth is the link-availability fraction the model consumed
	// (Point(1) on an unmonitored, contention-free network).
	Bandwidth stochastic.Value
	// BWGaps counts the bandwidth monitor's sensor outcomes (zero when
	// the network is not monitored).
	BWGaps nws.GapStats
	// Dist is the distribution-valued prediction: the full quantile grid
	// (raw and calibrated), the dominant forecaster tag, and any requested
	// intervals. Value and Raw above are the legacy two-number views;
	// Dist carries the shape they flatten. It is populated only when the
	// request asked for it (Request.Distribution or Request.Levels);
	// otherwise it is zero and Quantile reports false.
	Dist PredictionDist
}

// Degraded reports whether any monitor behind this prediction is currently
// inside a measurement gap (non-zero staleness), i.e. the interval was
// widened by the fallback chain rather than forecast from fresh samples.
func (p Prediction) Degraded() bool {
	for _, l := range p.Loads {
		if l.Staleness > 0 {
			return true
		}
	}
	return false
}
