// Package prodpred is a Go implementation of stochastic-value performance
// prediction for production distributed systems, reproducing Schopf &
// Berman, "Performance Prediction in Production Environments"
// (IPPS/SPDP 1998).
//
// The core idea: model parameters measured on shared ("production")
// systems — CPU availability, bandwidth, benchmark times — are not single
// numbers but distributions. A stochastic Value summarizes such a
// distribution as mean ± two standard deviations, combination rules
// propagate those ranges through structural performance models, and the
// resulting predictions are intervals that bound actual application
// behaviour far better than point estimates.
//
// The package is a facade over the implementation packages:
//
//   - Value and its arithmetic        (internal/stochastic)
//   - structural models               (internal/structural)
//   - the Network Weather Service     (internal/nws)
//   - production-platform simulation  (internal/simenv, cluster, load)
//   - the distributed Red-Black SOR   (internal/sor)
//   - stochastic-aware scheduling     (internal/sched)
//   - sensor-fault injection          (internal/faults)
//   - the prediction-service core     (internal/predict)
//   - the paper's tables and figures  (internal/experiments)
//
// A PredictionService is built from a PlatformSpec, the declarative,
// JSON-serializable description of a platform (SimulatedPlatformSpec gives
// the paper's two); NewPredictionService builds it and runs its warm-up, and
// a PredictRegistry hosts several by name (RegisterSpec).
//
// Serving infrastructure (the HTTP layer in internal/api and the metrics
// registry in internal/obs) is not re-exported here; cmd/predictd
// consumes it directly, and OPERATIONS.md documents it.
//
// Two time units appear throughout: simulation and prediction APIs run in
// virtual seconds (the simulated platform clock), while telemetry
// latencies are wall-clock seconds. Types in this facade are plain values
// unless their doc says otherwise; PredictionService, PredictRegistry,
// AccuracyTracker, FaultInjector, and Monitor-bearing types are the
// concurrency-safe long-lived objects.
//
// See examples/ for runnable walk-throughs and cmd/ for the tools.
package prodpred

import (
	"prodpred/internal/calib"
	"prodpred/internal/cluster"
	"prodpred/internal/experiments"
	"prodpred/internal/faults"
	"prodpred/internal/load"
	"prodpred/internal/modal"
	"prodpred/internal/nws"
	"prodpred/internal/predict"
	"prodpred/internal/sched"
	"prodpred/internal/simenv"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
)

// Value is a stochastic value X ± a (mean and two standard deviations).
type Value = stochastic.Value

// MaxStrategy resolves group Max/Min operations over stochastic values.
type MaxStrategy = stochastic.MaxStrategy

// Max strategies (§2.3.3 of the paper).
const (
	LargestMean      = stochastic.LargestMean
	LargestMagnitude = stochastic.LargestMagnitude
	Probabilistic    = stochastic.Probabilistic
)

// Point returns the point value x.
func Point(x float64) Value { return stochastic.Point(x) }

// NewValue returns mean ± spread; it panics on invalid input (see
// stochastic.TryNew for the validating form).
func NewValue(mean, spread float64) Value { return stochastic.New(mean, spread) }

// FromPercent returns mean ± pct% (e.g. 12 s ± 30%).
func FromPercent(mean, pct float64) Value { return stochastic.FromPercent(mean, pct) }

// FromSample summarizes a measurement sample as mean ± 2 standard
// deviations.
func FromSample(xs []float64) (Value, error) { return stochastic.FromSample(xs) }

// Max combines stochastic values under a group-Max strategy.
func Max(strategy MaxStrategy, vs ...Value) (Value, error) {
	return stochastic.Max(strategy, vs...)
}

// Min combines stochastic values under a group-Min strategy.
func Min(strategy MaxStrategy, vs ...Value) (Value, error) {
	return stochastic.Min(strategy, vs...)
}

// RelationKind is the §2.3.1 relatedness judgement between two measured
// quantities.
type RelationKind = stochastic.RelationKind

// Relation kinds.
const (
	RelatedKind   = stochastic.RelatedKind
	UnrelatedKind = stochastic.UnrelatedKind
)

// DetectRelation judges relatedness from paired measurement histories via
// rank correlation, automating the combination-rule choice the paper
// leaves to the modeler.
func DetectRelation(xs, ys []float64, threshold float64) (RelationKind, float64, error) {
	return stochastic.DetectRelation(xs, ys, threshold)
}

// Empirical is a quantity carried as its full sample instead of a normal
// summary — the ground-truth baseline for the Table 2 rules.
type Empirical = stochastic.Empirical

// NewEmpirical builds an empirical value from a measurement sample.
func NewEmpirical(samples []float64) (*Empirical, error) {
	return stochastic.NewEmpirical(samples)
}

// Structural modeling.
type (
	// Component is a node of a structural performance model.
	Component = structural.Component
	// Params maps parameter names to stochastic values.
	Params = structural.Params
	// SORConfig is the structural model of the distributed Red-Black SOR.
	SORConfig = structural.SORConfig
	// Relation tags combinations as related (conservative) or unrelated
	// (independent, root-sum-square).
	Relation = structural.Relation
)

// Relations.
const (
	Related   = structural.Related
	Unrelated = structural.Unrelated
)

// LoadParam names processor p's CPU-availability model parameter.
func LoadParam(p int) string { return structural.LoadParam(p) }

// BWAvailParam names the bandwidth-availability model parameter.
const BWAvailParam = structural.BWAvailParam

// Hardware model and simulation.
type (
	// Machine is a workstation with a dedicated compute rate.
	Machine = cluster.Machine
	// Link is a network channel with dedicated bandwidth and latency.
	Link = cluster.Link
	// Platform is a set of machines on one shared link.
	Platform = cluster.Platform
	// Env simulates a production environment in virtual time.
	Env = simenv.Env
	// LoadProcess is a time-varying CPU-availability signal.
	LoadProcess = load.Process
)

// Platform1 returns the paper's first evaluation platform (2x Sparc-2,
// Sparc-5, Sparc-10 on 10 Mbit ethernet).
func Platform1() *Platform { return cluster.Platform1() }

// Platform2 returns the paper's second evaluation platform (Sparc-5,
// Sparc-10, 2x UltraSparc on 10 Mbit ethernet).
func Platform2() *Platform { return cluster.Platform2() }

// Load-process presets calibrated to the paper's measured shapes.

// DedicatedLoad returns full availability (no competing users).
func DedicatedLoad() LoadProcess { return load.Dedicated() }

// CenterModeLoad returns Platform 1's center-mode load (0.48 ± 0.05).
func CenterModeLoad(seed int64) (LoadProcess, error) { return load.Platform1CenterMode(seed) }

// TriModalLoad returns Platform 1's tri-modal load (Figure 5).
func TriModalLoad(seed int64) (LoadProcess, error) { return load.Platform1TriModal(seed) }

// BurstyLoad returns Platform 2's 4-modal bursty load (Figures 10-11).
func BurstyLoad(seed int64) (LoadProcess, error) { return load.Platform2FourModeBursty(seed) }

// LightLoadProcess returns a lightly loaded machine (availability ~0.92).
func LightLoadProcess(seed int64) (LoadProcess, error) { return load.LightLoad(seed) }

// EthernetContentionLoad returns the long-tailed bandwidth-availability
// process of Figure 3.
func EthernetContentionLoad(seed int64) (LoadProcess, error) {
	return load.EthernetContention(seed)
}

// RecordLoad samples a load process every dt over [t0, t1], returning
// parallel time and value slices.
func RecordLoad(p LoadProcess, t0, t1, dt float64) (ts, vs []float64, err error) {
	s, err := load.Record(p, t0, t1, dt)
	if err != nil {
		return nil, nil, err
	}
	return s.Times(), s.Values(), nil
}

// NewEnv binds a platform to per-machine load processes and a network
// contention process.
func NewEnv(p *Platform, cpu []LoadProcess, net LoadProcess) (*Env, error) {
	return simenv.New(p, cpu, net)
}

// NewDedicatedEnv returns an unloaded environment for the platform.
func NewDedicatedEnv(p *Platform) (*Env, error) { return simenv.NewDedicated(p) }

// Network Weather Service.
type (
	// Monitor drives an NWS sensor and forecaster over an environment.
	Monitor = nws.Monitor
	// Forecast is one NWS report (value, error estimate, winning method).
	Forecast = nws.Forecast
)

// NewCPUMonitor monitors machine m's CPU availability in env.
func NewCPUMonitor(env *Env, m int, period float64, histSize int) (*Monitor, error) {
	return nws.NewCPUMonitor(env, m, period, histSize)
}

// NewBandwidthMonitor monitors achieved bandwidth between machines i and j.
// Bandwidth is consumed as X ± a only, so unlike a CPU monitor it runs no
// distribution tournament (Tournament() is nil).
func NewBandwidthMonitor(env *Env, i, j int, probeBytes, period float64, histSize int) (*Monitor, error) {
	return nws.NewBandwidthMonitor(env, i, j, probeBytes, period, histSize)
}

// SOR application.
type (
	// Grid is the SOR solution grid.
	Grid = sor.Grid
	// Partition is a strip decomposition.
	Partition = sor.Partition
	// SimResult reports the timing of a simulated distributed run.
	SimResult = sor.SimResult
)

// NewGrid allocates an N x N grid.
func NewGrid(n int) (*Grid, error) { return sor.NewGrid(n) }

// OptimalOmega returns the asymptotically optimal SOR over-relaxation
// factor for an n x n model problem.
func OptimalOmega(n int) float64 { return sor.OptimalOmega(n) }

// NewTCPBackend returns the genuinely distributed SOR backend: one worker
// per strip exchanging ghost rows over loopback TCP.
func NewTCPBackend(part *Partition) (*sor.TCPBackend, error) {
	return sor.NewTCPBackend(part)
}

// NewWeightedPartition splits interior rows proportionally to weights.
func NewWeightedPartition(n int, weights []float64) (*Partition, error) {
	return sor.NewWeightedPartition(n, weights)
}

// Scheduling.
type (
	// SchedStrategy selects how a scheduler reads stochastic predictions.
	SchedStrategy = sched.Strategy
	// PolicyReport is a Monte Carlo evaluation of a scheduling strategy.
	PolicyReport = sched.PolicyReport
)

// Scheduling strategies.
const (
	MeanBalanced = sched.MeanBalanced
	Conservative = sched.Conservative
	Optimistic   = sched.Optimistic
)

// UnitAllocation splits work units across machines by predicted rate.
func UnitAllocation(total int, unitTimes []Value, s SchedStrategy) ([]int, error) {
	return sched.UnitAllocation(total, unitTimes, s)
}

// TimeBalancedPartition builds an AppLeS-style strip decomposition whose
// predicted per-iteration strip times (compute under forecast load plus
// ghost-row communication) are equalized by fixed-point refinement.
func TimeBalancedPartition(n int, machines []Machine, loads []Value, link Link, refinements int) (*Partition, error) {
	return sched.TimeBalancedPartition(n, machines, loads, link, refinements)
}

// PromiseFor converts a stochastic completion-time prediction into a
// service promise missed with at most the given probability — the paper's
// "service range" alternative to hard QoS guarantees.
func PromiseFor(v Value, missProb float64) (float64, error) {
	return sched.PromiseFor(v, missProb)
}

// OptimizeAllocation searches for the unit allocation minimizing the given
// objective over the stochastic makespan (see sched.MeanObjective,
// sched.UpperBoundObjective, sched.QuantileObjective).
func OptimizeAllocation(total int, unitTimes []Value, objective sched.Objective) ([]int, Value, error) {
	return sched.OptimizeAllocation(total, unitTimes, objective)
}

// Modal load analysis (§2.1.2).
type (
	// MixtureModel is a fitted 1-D Gaussian mixture over load samples.
	MixtureModel = modal.MixtureModel
	// Mode is one detected load mode.
	Mode = modal.Mode
	// Burstiness summarizes how a load series moves between modes.
	Burstiness = modal.Burstiness
)

// FitModes fits Gaussian mixtures with 1..kMax modes to load samples and
// returns the BIC-best model.
func FitModes(xs []float64, kMax int) (*MixtureModel, error) {
	return modal.FitBIC(xs, kMax)
}

// ModalStochasticValue summarizes a load series per the paper's §2.1.2:
// the dominant mode's value when the series is effectively single-mode,
// otherwise the occupancy-weighted combination of mode values. The bool
// reports whether the single-mode branch was taken.
func ModalStochasticValue(mm *MixtureModel, xs []float64) (Value, bool, error) {
	return modal.StochasticValue(mm, xs)
}

// AnalyzeBurstiness classifies a load series against a fitted model and
// summarizes its mode dynamics.
func AnalyzeBurstiness(mm *MixtureModel, xs []float64) (Burstiness, error) {
	return modal.AnalyzeBurstiness(mm, xs)
}

// Sensor-fault injection: deterministic measurement-failure schedules
// wrapped around NWS sensors, for studying prediction quality when the
// monitoring layer itself misbehaves.
type (
	// FaultInjector wraps NWS sensors with deterministic, seed-keyed
	// measurement faults (drops, outages, transient errors, spikes).
	FaultInjector = faults.Injector
	// FaultSchedule describes the fault classes applied to one machine's
	// sensor: per-sample probabilities plus scheduled outage windows.
	FaultSchedule = faults.Schedule
	// OutageWindow is a half-open [Start, End) interval of virtual time
	// during which a sensor returns no measurements at all.
	OutageWindow = faults.Window
	// FaultStats counts fault decisions made by an injector.
	FaultStats = faults.Stats
	// GapStats is a monitor's per-fault-class accounting of measurement
	// gaps: clean samples, drops, outage misses, transients, retries.
	GapStats = nws.GapStats
)

// DefaultSpikeFactor is the load multiplier applied by injected outlier
// spikes when a FaultSchedule does not set its own.
const DefaultSpikeFactor = faults.DefaultSpikeFactor

// NewFaultInjector returns a fault injector whose decisions are pure
// functions of (seed, machine, virtual time) — deterministic across runs
// and safe for concurrent sensors. Configure per-machine schedules with
// Set, then wrap sensors via Sensor or CPUSensor.
func NewFaultInjector(seed int64) *FaultInjector { return faults.NewInjector(seed) }

// Prediction service: the monitor -> forecast -> model -> schedule ->
// predict flow packaged as a long-lived, goroutine-safe core.
type (
	// PredictionService owns per-machine NWS monitors over a simulated
	// production platform, advances them on a shared virtual clock, and
	// answers concurrent Predict calls. Safe for concurrent use; every
	// time in its API (clock positions, predictions, observed runtimes)
	// is in virtual seconds.
	PredictionService = predict.Service
	// PlatformSpec is the JSON-serializable description every
	// PredictionService is built from: machines, link, per-machine CPU
	// load, network contention, monitor history, warm-up, and sensor-fault
	// schedules.
	PlatformSpec = predict.PlatformSpec
	// FaultSpec is one machine's sensor-fault schedule in a PlatformSpec;
	// OutageSpec one of its outage windows, in virtual seconds.
	FaultSpec  = predict.FaultSpec
	OutageSpec = predict.OutageSpec
	// PredictRequest names what to predict: grid size, iteration count,
	// partition strategy, Max strategy, and iteration relation.
	PredictRequest = predict.Request
	// Prediction is a stochastic execution-time prediction (virtual
	// seconds) with the chosen partition, per-machine load reports, and
	// gap/staleness diagnostics.
	Prediction = predict.Prediction
	// MachineReport is one machine's forecast load plus monitor health.
	MachineReport = predict.MachineReport
	// PredictRegistry routes prediction requests across several hosted
	// platforms by name. Safe for concurrent use.
	PredictRegistry = predict.Registry
)

// DefaultCPUPrior is the conservative fallback CPU-availability prior
// (0.5 ± 0.5, i.e. "anything is possible") used when a machine's monitor
// has no usable history — for example during a sensor outage.
var DefaultCPUPrior = predict.DefaultCPUPrior

// NewPredictionService builds the prediction service the spec describes and
// runs its warm-up. Advance moves its virtual clock (and all monitors)
// further; Predict answers at the current time.
func NewPredictionService(spec PlatformSpec) (*PredictionService, error) {
	return predict.NewServiceFromSpec(&spec, nil)
}

// NewPredictRegistry returns an empty prediction-service registry.
func NewPredictRegistry() *PredictRegistry { return predict.NewRegistry() }

// SimulatedPlatformSpec returns the spec of one of the paper's evaluation
// platforms (1 or 2) under its calibrated production load shapes — the same
// construction cmd/sorpredict and cmd/predictd use.
func SimulatedPlatformSpec(platform int, seed int64) (PlatformSpec, error) {
	return predict.SimulatedSpec(platform, seed)
}

// Online accuracy tracking, adaptive interval calibration, and load-regime
// drift detection: the feedback half of the prediction loop. A
// PredictionService owns one AccuracyTracker per platform; Observe feeds
// measured runtimes back, and subsequent predictions return conformally
// calibrated intervals.
type (
	// AccuracyTracker ingests (prediction, actual) outcomes — both sides
	// in virtual seconds — and maintains rolling capture/error/width
	// statistics, a conformal half-width multiplier, and CUSUM +
	// mode-count regime-drift detection. Safe for concurrent use.
	AccuracyTracker = calib.Tracker
	// CalibrationSnapshot is a consistent read of a tracker's accuracy and
	// calibration state — what GET /accuracy serves.
	CalibrationSnapshot = calib.Snapshot
	// CalibrationOutcome is one observed (prediction, actual) pair.
	CalibrationOutcome = calib.Outcome
	// DriftEvent records one detected load-regime change.
	DriftEvent = calib.DriftEvent
)

// The calibration target and drift-event reasons.
const (
	// DefaultTargetCapture is the paper's two-σ nominal coverage (~95%),
	// the capture rate every AccuracyTracker aims for.
	DefaultTargetCapture = calib.TargetCapture
	// DriftReasonCUSUM marks a sustained forecast-residual shift.
	DriftReasonCUSUM = calib.ReasonCUSUM
	// DriftReasonModeCount marks residuals that turned multi-modal.
	DriftReasonModeCount = calib.ReasonModeCount
)

// NewAccuracyTracker returns a standalone online accuracy tracker — the
// same machinery, at the same fixed tuning, a PredictionService embeds, for
// callers that run their own prediction loop.
func NewAccuracyTracker() *AccuracyTracker {
	tr, _ := calib.New(calib.Config{}) // never fails
	return tr
}

// StalenessDegradeRate is the per-period staleness widening rate shared by
// NWS monitor reports and the calibration layer: a monitor's spread is
// multiplied by StalenessFactor(stale) = 1 + StalenessDegradeRate·stale,
// and the conformal calibration multiplier composes on top of that.
const StalenessDegradeRate = nws.DegradeRate

// StalenessFactor returns the staleness spread multiplier for a given
// staleness in sensor periods.
func StalenessFactor(stale float64) float64 { return nws.StalenessFactor(stale) }

// Experiments.
type (
	// Experiment is one registered reproduction artifact.
	Experiment = experiments.Experiment
	// ExperimentResult is an experiment's rendered output and metrics.
	ExperimentResult = experiments.Result
)

// Experiments lists every registered table/figure reproduction.
func Experiments() []Experiment { return experiments.All() }

// LookupExperiment finds an experiment by ID (e.g. "fig9", "table1").
func LookupExperiment(id string) (Experiment, error) { return experiments.Lookup(id) }
