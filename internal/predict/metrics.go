package predict

import (
	"time"

	"prodpred/internal/nws"
	"prodpred/internal/obs"
)

// Pipeline metric family names, as exposed on GET /metrics. Every family is
// labeled by platform (the stage histogram additionally by stage) except
// MetricFleetAdvance, which the registry records once per wave, and the
// process-wide load replay counters (load.Replays). The full
// catalog lives in OPERATIONS.md, and internal/readmecheck fails the build
// if a registered name is missing from it.
const (
	MetricPredictions      = "predict_predictions_total"
	MetricPredictionErrors = "predict_prediction_errors_total"
	MetricObservations     = "predict_observations_total"
	MetricDriftEvents      = "predict_drift_events_total"
	MetricFaultGapSamples  = "predict_fault_gap_samples_total"
	MetricCalibrationScale = "predict_calibration_scale"
	MetricOutstanding      = "predict_outstanding_predictions"
	MetricVirtualTime      = "predict_virtual_time_seconds"
	MetricStageDuration    = "predict_stage_duration_seconds"
	MetricCacheHits        = "predict_cache_hits_total"
	MetricCacheMisses      = "predict_cache_misses_total"
	MetricBatchSize        = "predict_batch_size"
	MetricTournamentWins   = "forecaster_tournament_wins_total"
	MetricQuantileRequests = "predict_quantile_requests_total"
	MetricScenarioInfo     = "workload_scenario_info"
	MetricFleetAdvance     = "predict_fleet_advance_seconds"
	MetricMixtureRefits    = "predict_mixture_refits_total"
	MetricLoadReplays      = "predict_load_replays_total"
	MetricLoadReplayTicks  = "predict_load_replayed_ticks_total"
)

// BatchSizeBuckets are the upper bounds of the predict_batch_size
// histogram: powers of two spanning a single request to the largest batch
// the API accepts.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Stage label values of MetricStageDuration, in pipeline order: catch the
// monitors up (monitor_read), read their robust stochastic reports
// (forecast), choose the partition (schedule), evaluate the structural
// model (model_eval), run the distribution transform's draws (dist_grid),
// and the whole Predict call end to end (predict).
var Stages = []string{"monitor_read", "forecast", "schedule", "model_eval", "dist_grid", "predict"}

// stage indexes Stages.
type stage int

const (
	stageMonitorRead stage = iota
	stageForecast
	stageSchedule
	stageModelEval
	stageDistGrid
	stagePredict
	numStages
)

// serviceMetrics holds one platform's pre-resolved pushed series: the
// counters of what this process did and the latency histograms. A nil
// *serviceMetrics (no registry configured) makes every record call a cheap
// no-op, so the pipeline is identical with telemetry off. The gauges and
// the counters of state the service keeps anyway (predictions issued,
// outcomes observed, drift events, missed sensor samples) are not here:
// newServiceMetrics registers them as functions that read the service
// itself at exposition, so they continue from a snapshot image's state.
type serviceMetrics struct {
	errors       *obs.Counter
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	batchSize    *obs.Histogram
	quantileReqs *obs.Counter
	stages       [numStages]*obs.Histogram
	refits       [3]*obs.Counter // by nws.RefitBy

	// Tournament-win counters, pre-resolved per forecaster tag a served
	// load report can carry; the map is read-only after construction, so
	// concurrent record calls never race.
	wins map[string]*obs.Counter
}

// newServiceMetrics registers (or finds) the pipeline families on reg and
// resolves s's series, eagerly, so every documented family and stage series
// exists from the first scrape. The predictions issued (the ledger's last
// ID), outcomes observed and drift events (the tracker's), missed sensor
// samples (the monitors'), calibration scale, ledger size and virtual clock
// are read from s when scraped, and the scenario info series are constant:
// none of them is written after this.
func newServiceMetrics(reg *obs.Registry, s *Service) *serviceMetrics {
	if reg == nil {
		return nil
	}
	platform := s.name
	m := &serviceMetrics{
		errors: reg.NewCounterVec(MetricPredictionErrors,
			"Predict calls rejected with an error, by platform.", "platform").With(platform),
		cacheHits: reg.NewCounterVec(MetricCacheHits,
			"Predictions whose grid size the tick-scoped forecast cache had already worked out, by platform.", "platform").With(platform),
		cacheMisses: reg.NewCounterVec(MetricCacheMisses,
			"Predictions that worked out their grid size (first touch per size and tick, or uncacheable request), by platform.", "platform").With(platform),
		batchSize: reg.NewHistogramVec(MetricBatchSize,
			"Requests per POST /predict/batch call, by platform.",
			BatchSizeBuckets, "platform").With(platform),
		quantileReqs: reg.NewCounterVec(MetricQuantileRequests,
			"Predictions that requested calibrated quantile intervals, by platform.", "platform").With(platform),
	}
	reg.NewCounterVec(MetricPredictions,
		"Predictions issued, by platform.", "platform").
		Func(s.issued, platform)
	reg.NewCounterVec(MetricObservations,
		"Measured runtimes fed back via Observe, by platform.", "platform").
		Func(func() int64 { return int64(s.tracker.ObservedCount()) }, platform)
	reg.NewCounterVec(MetricDriftEvents,
		"Load-regime drift events detected by the calibrator, by platform.", "platform").
		Func(func() int64 { return int64(s.DriftCount()) }, platform)
	reg.NewCounterVec(MetricFaultGapSamples,
		"Sensor samples lost to faults (drops, outages, exhausted transients), by platform.", "platform").
		Func(func() int64 { return int64(s.missedTotal()) }, platform)
	reg.NewGaugeVec(MetricCalibrationScale,
		"Current conformal half-width multiplier, by platform (1 = uncalibrated).", "platform").
		Func(s.tracker.Scale, platform)
	reg.NewGaugeVec(MetricOutstanding,
		"Issued predictions awaiting an Observe call, by platform.", "platform").
		Func(func() float64 { return float64(s.Outstanding()) }, platform)
	reg.NewGaugeVec(MetricVirtualTime,
		"Current virtual-clock time in virtual seconds, by platform.", "platform").
		Func(s.Now, platform)
	hv := reg.NewHistogramVec(MetricStageDuration,
		"Wall-clock pipeline stage latency in seconds, by platform and stage.",
		nil, "platform", "stage")
	for st, label := range Stages {
		m.stages[st] = hv.With(platform, label)
	}
	rv := reg.NewCounterVec(MetricMixtureRefits,
		"Mixture-forecaster refits run, by platform and by whom: a background goroutine, the first read that needed the fit, or the next round of a clock step.",
		"platform", "by")
	for by := range m.refits {
		m.refits[by] = rv.With(platform, nws.RefitBy(by).String())
	}
	wv := reg.NewCounterVec(MetricTournamentWins,
		"Machine-load distributions served per winning forecaster, by platform and forecaster.",
		"platform", "forecaster")
	m.wins = make(map[string]*obs.Counter)
	tags := append(nws.DistForecasterNames(),
		nws.FallbackForecasterName, nws.PriorForecasterName)
	for _, tag := range tags {
		m.wins[tag] = wv.With(platform, tag)
	}
	// One constant-1 series per workload scenario the spec references: an
	// info metric for fleet dashboards.
	scenarios := reg.NewGaugeVec(MetricScenarioInfo,
		"Workload-library scenarios driving this platform's load (value always 1), by platform and scenario.",
		"platform", "scenario")
	for _, ls := range s.spec.CPU {
		if ls.Kind == "scenario" {
			scenarios.With(platform, ls.Scenario).Set(1)
		}
	}
	if s.spec.Net != nil && s.spec.Net.Kind == "scenario" {
		scenarios.With(platform, s.spec.Net.Scenario).Set(1)
	}
	return m
}

// recordTournamentWin counts one machine-load distribution served by the
// named forecaster: a tournament competitor, the fallback or the prior.
func (m *serviceMetrics) recordTournamentWin(name string) {
	if m != nil {
		m.wins[name].Inc()
	}
}

// recordRefit counts one mixture refit, by who ran it; safe from any
// goroutine.
func (m *serviceMetrics) recordRefit(by nws.RefitBy) {
	if m != nil {
		m.refits[by].Inc()
	}
}

// recordQuantileRequest counts one prediction that asked for calibrated
// quantile intervals.
func (m *serviceMetrics) recordQuantileRequest() {
	if m != nil {
		m.quantileReqs.Inc()
	}
}

// stopwatch times one pipeline stage; the zero stopwatch records nothing.
type stopwatch struct {
	h     *obs.Histogram
	start time.Time
}

// startStage starts the wall-clock timing of one pipeline stage. On a nil
// receiver it avoids even the clock read.
func (m *serviceMetrics) startStage(st stage) stopwatch {
	if m == nil {
		return stopwatch{}
	}
	return stopwatch{h: m.stages[st], start: time.Now()}
}

// stop records the time since startStage.
func (w stopwatch) stop() {
	if w.h != nil {
		w.h.Observe(time.Since(w.start).Seconds())
	}
}

func (m *serviceMetrics) recordError() {
	if m != nil {
		m.errors.Inc()
	}
}

func (m *serviceMetrics) recordCacheHit() {
	if m != nil {
		m.cacheHits.Inc()
	}
}

func (m *serviceMetrics) recordCacheMiss() {
	if m != nil {
		m.cacheMisses.Inc()
	}
}

// recordBatch records one PredictBatch call's size.
func (m *serviceMetrics) recordBatch(n int) {
	if m != nil {
		m.batchSize.Observe(float64(n))
	}
}
