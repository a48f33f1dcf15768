package prodpred

import (
	"math"
	"testing"
)

// TestFacadeEndToEnd exercises the public API the way a downstream user
// would: build the paper's two-machine example, combine stochastic values,
// monitor a simulated platform, and predict an SOR run.
func TestFacadeEndToEnd(t *testing.T) {
	// Stochastic values and arithmetic.
	a := FromPercent(12, 5)
	b := FromPercent(12, 30)
	if a.Mean != 12 || math.Abs(b.Spread-3.6) > 1e-12 {
		t.Fatalf("values: %v %v", a, b)
	}
	sum := a.AddUnrelated(b)
	if sum.Mean != 24 {
		t.Errorf("sum=%v", sum)
	}
	m, err := Max(LargestMagnitude, a, b)
	if err != nil || m != b {
		t.Errorf("max=%v err=%v", m, err)
	}

	// Scheduling on the §1.2 example.
	alloc, err := UnitAllocation(100, []Value{a, b}, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0]+alloc[1] != 100 || alloc[0] <= alloc[1] {
		t.Errorf("alloc=%v", alloc)
	}

	// Simulated platform + NWS + structural prediction.
	plat := Platform1()
	env, err := NewDedicatedEnv(plat)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewCPUMonitor(env, 0, 5, 64)
	if err != nil {
		t.Fatal(err)
	}
	v, err := mon.Report(300)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.Mean-1) > 1e-9 {
		t.Errorf("dedicated availability forecast=%v", v)
	}

	weights := make([]float64, plat.Size())
	machines := make([]Machine, plat.Size())
	for i := range weights {
		machines[i] = plat.Machine(i)
		weights[i] = machines[i].ElemRate
	}
	part, err := NewWeightedPartition(600, weights)
	if err != nil {
		t.Fatal(err)
	}
	link, err := plat.Link(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &SORConfig{
		N: 600, Iterations: 10, Partition: part, Machines: machines,
		Link: link, MaxStrategy: LargestMean,
	}
	params := cfg.DedicatedParams()
	params[LoadParam(0)] = NewValue(0.48, 0.05)
	pred, err := cfg.Predict(params)
	if err != nil {
		t.Fatal(err)
	}
	if pred.IsPoint() || pred.Mean <= 0 {
		t.Errorf("prediction=%v", pred)
	}

	// Experiments registry is reachable.
	if len(Experiments()) < 20 {
		t.Errorf("experiments=%d", len(Experiments()))
	}
	if _, err := LookupExperiment("table1"); err != nil {
		t.Error(err)
	}
	if _, err := LookupExperiment("nope"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestFacadeSchedulingExtensions(t *testing.T) {
	unit := []Value{FromPercent(12, 5), FromPercent(12, 30)}

	// Objective-tuned allocation through the facade.
	alloc, makespan, err := OptimizeAllocation(60, unit, func(v Value) float64 { return v.Hi() })
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0]+alloc[1] != 60 || makespan.Mean <= 0 {
		t.Errorf("alloc=%v makespan=%v", alloc, makespan)
	}

	// Service-range promise.
	p, err := PromiseFor(makespan, 0.05)
	if err != nil || p < makespan.Mean {
		t.Errorf("promise=%g err=%v", p, err)
	}

	// Time-balanced partitioning.
	plat := Platform1()
	machines := make([]Machine, plat.Size())
	loads := make([]Value, plat.Size())
	for i := range machines {
		machines[i] = plat.Machine(i)
		loads[i] = Point(1)
	}
	link, err := plat.Link(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := TimeBalancedPartition(200, machines, loads, link, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFacadeDistributedAndModal(t *testing.T) {
	// TCP backend through the facade.
	part, err := NewWeightedPartition(33, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewTCPBackend(part)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := NewGrid(33)
	g.SetBoundary(func(x, y float64) float64 { return x + y })
	omega := OptimalOmega(33)
	if omega <= 1 || omega >= 2 {
		t.Errorf("omega=%g", omega)
	}
	res, err := backend.Run(g, omega, 50)
	if err != nil || res.Iterations != 50 {
		t.Fatalf("TCP run res=%+v err=%v", res, err)
	}

	// Relation detection through the facade.
	xs := make([]float64, 64)
	ys := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = -float64(i)
	}
	kind, rho, err := DetectRelation(xs, ys, 0.35)
	if err != nil || kind != RelatedKind || rho > -0.9 {
		t.Errorf("DetectRelation=%v rho=%g err=%v", kind, rho, err)
	}

	// Empirical values through the facade.
	e, err := NewEmpirical([]float64{1, 2, 3, 4})
	if err != nil || e.N() != 4 {
		t.Fatalf("NewEmpirical err=%v", err)
	}
	if s := e.Summary(); s.Mean != 2.5 {
		t.Errorf("summary=%v", s)
	}

	// Modal analysis through the facade (reuse a bursty trace).
	proc, err := BurstyLoad(3)
	if err != nil {
		t.Fatal(err)
	}
	_, vals, err := RecordLoad(proc, 0, 4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := FitModes(vals, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mm.K() < 2 {
		t.Errorf("modes=%d", mm.K())
	}
	v, _, err := ModalStochasticValue(mm, vals)
	if err != nil || v.Spread <= 0 {
		t.Errorf("modal value=%v err=%v", v, err)
	}
	if _, err := AnalyzeBurstiness(mm, vals); err != nil {
		t.Error(err)
	}
}

// TestFacadePredictionService round-trips the fault-injection and
// prediction-service exports: build a fault-injected service for a paper
// platform through the facade only, warm it up, and predict under both
// healthy and degraded monitors.
func TestFacadePredictionService(t *testing.T) {
	spec, err := SimulatedPlatformSpec(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = []FaultSpec{{
		Machine:     0,
		Drop:        0.3,
		Spike:       0.05,
		SpikeFactor: DefaultSpikeFactor,
		Outages:     []OutageSpec{{Start: 100, End: 220}},
	}}
	spec.Warmup = 300
	svc, err := NewPredictionService(spec)
	if err != nil {
		t.Fatal(err)
	}

	pred, err := svc.Predict(PredictRequest{N: 120, Iterations: 6, MaxStrategy: LargestMean})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Value.Mean <= 0 || pred.Value.IsPoint() {
		t.Errorf("prediction=%v", pred.Value)
	}
	if len(pred.Loads) != Platform2().Size() {
		t.Fatalf("loads=%d", len(pred.Loads))
	}
	var rep MachineReport = pred.Loads[0]
	var gaps GapStats = rep.Gaps
	if gaps.Dropped == 0 || gaps.Outage == 0 {
		t.Errorf("machine 0 gaps=%+v, want drops and outage misses", gaps)
	}

	// A standalone injector wraps any sensor with the same schedules.
	in := NewFaultInjector(5)
	if err := in.Set(0, FaultSchedule{DropProb: 0.3, Outages: []OutageWindow{{Start: 100, End: 220}}}); err != nil {
		t.Fatal(err)
	}
	sensor := in.Sensor(0, func(float64) (float64, error) { return 1, nil })
	for at := 0.0; at < 300; at += 10 {
		sensor(at)
	}
	var stats FaultStats = in.Stats(0)
	if stats.Drops == 0 || stats.OutageHits == 0 || stats.Total() == 0 {
		t.Errorf("injector stats empty: %+v", stats)
	}

	// Route the same request through a registry, as predictd does: the
	// registry builds its own service from the same spec.
	reg := NewPredictRegistry()
	if err := reg.RegisterSpec(spec); err != nil {
		t.Fatal(err)
	}
	routed, err := reg.Predict(PredictRequest{
		Platform: svc.Name(), N: 120, Iterations: 6, MaxStrategy: LargestMean,
	})
	if err != nil {
		t.Fatal(err)
	}
	if routed.Value != pred.Value {
		t.Errorf("registry routing changed the prediction: %v vs %v", routed.Value, pred.Value)
	}

	// The conservative prior is the documented fallback bound.
	if DefaultCPUPrior.Mean != 0.5 || DefaultCPUPrior.Spread != 0.5 {
		t.Errorf("prior=%v", DefaultCPUPrior)
	}
}

// TestFacadeCalibration round-trips the online-accuracy exports: a
// standalone AccuracyTracker, the closed Predict -> Observe loop on a
// PredictionService, and registry-routed observation — facade types only.
func TestFacadeCalibration(t *testing.T) {
	// Standalone tracker: feed dead-center outcomes until the conformal
	// multiplier tightens below identity.
	tr := NewAccuracyTracker()
	for i := 0; i < 24; i++ {
		raw := NewValue(10, 2)
		out := CalibrationOutcome{
			ID: uint64(i + 1), Time: float64(i),
			Raw: raw, Calibrated: tr.Calibrate(raw),
			Actual: 10 + 0.02*float64(i%5-2),
		}
		if _, fired := tr.Observe(out); fired {
			t.Fatalf("outcome %d: unexpected drift", i)
		}
	}
	snap := tr.Snapshot()
	if snap.Observed != 24 || snap.Scale >= 1 {
		t.Errorf("snapshot=%+v, want 24 observed and a tightened scale", snap)
	}
	if snap.Target != DefaultTargetCapture {
		t.Errorf("target=%g", snap.Target)
	}

	// Closed loop through a service and a registry.
	spec, err := SimulatedPlatformSpec(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	spec.Warmup = 200
	reg := NewPredictRegistry()
	if err := reg.RegisterSpec(spec); err != nil {
		t.Fatal(err)
	}
	svc, err := reg.Lookup(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := svc.Predict(PredictRequest{N: 120, Iterations: 6, MaxStrategy: LargestMean})
	if err != nil {
		t.Fatal(err)
	}
	if pred.ID == 0 || pred.CalibrationScale != 1 || pred.Value != pred.Raw {
		t.Errorf("uncalibrated prediction: id=%d scale=%g", pred.ID, pred.CalibrationScale)
	}
	if _, err := reg.Observe(svc.Name(), pred.ID, pred.Value.Mean); err != nil {
		t.Fatal(err)
	}
	var got CalibrationSnapshot = svc.Accuracy()
	if got.Observed != 1 || got.RawCapture != 1 {
		t.Errorf("after observe: %+v", got)
	}
	if _, err := reg.Observe("nope", 1, 1); err == nil {
		t.Error("unknown platform should fail")
	}

	// The shared staleness-widening seam is exported.
	if StalenessFactor(0) != 1 || StalenessFactor(4) != 1+4*StalenessDegradeRate {
		t.Errorf("staleness factor: %g %g", StalenessFactor(0), StalenessFactor(4))
	}
	var _ DriftEvent
	if DriftReasonCUSUM == DriftReasonModeCount {
		t.Error("drift reasons must be distinct")
	}
}

func TestFacadeSampleRoundTrip(t *testing.T) {
	xs := []float64{11, 12, 13, 12, 11.5, 12.5}
	v, err := FromSample(xs)
	if err != nil {
		t.Fatal(err)
	}
	if v.Mean < 11.9 || v.Mean > 12.1 {
		t.Errorf("mean=%g", v.Mean)
	}
	if _, err := FromSample(nil); err == nil {
		t.Error("empty sample should fail")
	}
	if p := Point(5); !p.IsPoint() {
		t.Error("Point should be a point value")
	}
	if _, err := Min(LargestMean, Point(1), Point(2)); err != nil {
		t.Error(err)
	}
	g, err := NewGrid(10)
	if err != nil || g.N != 10 {
		t.Errorf("grid err=%v", err)
	}
	if Platform2().Size() != 4 {
		t.Error("platform2 size")
	}
}
