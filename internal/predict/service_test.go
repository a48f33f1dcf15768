package predict_test

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"prodpred/internal/calib"
	"prodpred/internal/cluster"
	"prodpred/internal/predict"
	"prodpred/internal/stochastic"
)

// burstySpec is the Platform 2 spec under bursty production load with a
// 256-sample monitor ring, optionally fault-injected (faults seeded with the
// platform seed), warmed up to warmup.
func burstySpec(t *testing.T, seed int64, warmup float64, fs ...predict.FaultSpec) predict.PlatformSpec {
	t.Helper()
	spec, err := predict.SimulatedSpec(2, seed)
	if err != nil {
		t.Fatal(err)
	}
	spec.History = 256
	spec.Warmup = warmup
	spec.Faults = fs
	return spec
}

// burstyService builds burstySpec's service.
func burstyService(t *testing.T, seed int64, warmup float64, fs ...predict.FaultSpec) *predict.Service {
	t.Helper()
	spec := burstySpec(t, seed, warmup, fs...)
	svc, err := predict.NewServiceFromSpec(&spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func baseRequest() predict.Request {
	return predict.Request{N: 120, Iterations: 6, MaxStrategy: stochastic.LargestMean}
}

func TestPredictBasics(t *testing.T) {
	svc := burstyService(t, 3, 300)
	pred, err := svc.Predict(baseRequest())
	if err != nil {
		t.Fatal(err)
	}
	if pred.Value.Mean <= 0 {
		t.Errorf("prediction mean=%g", pred.Value.Mean)
	}
	if pred.Value.IsPoint() {
		t.Error("production prediction should carry spread")
	}
	if pred.Time != 300 {
		t.Errorf("prediction time=%g, want 300", pred.Time)
	}
	if got := pred.Partition.P(); got != svc.Platform().Size() {
		t.Errorf("partition strips=%d", got)
	}
	if len(pred.Loads) != svc.Platform().Size() {
		t.Fatalf("loads=%d", len(pred.Loads))
	}
	for i, l := range pred.Loads {
		if l.Machine != i {
			t.Errorf("load %d machine=%d", i, l.Machine)
		}
		if l.Load.Mean <= 0 || l.Load.Mean > 1.5 {
			t.Errorf("machine %d load=%v", i, l.Load)
		}
		if l.Raw <= 0 || l.Raw > 1 {
			t.Errorf("machine %d raw=%g", i, l.Raw)
		}
		if l.Gaps.Recorded() == 0 {
			t.Errorf("machine %d recorded no samples", i)
		}
	}
	// Ethernet contention is a production network: bandwidth must have
	// been monitored, not assumed dedicated.
	if pred.Bandwidth == stochastic.Point(1) {
		t.Error("bandwidth should be monitored under contention")
	}
	if pred.Degraded() {
		t.Error("fault-free service should not be degraded")
	}
}

func TestRequestValidation(t *testing.T) {
	svc := burstyService(t, 3, 100)
	req := baseRequest()
	req.N = 2
	if _, err := svc.Predict(req); err == nil {
		t.Error("tiny grid should fail")
	}
	req = baseRequest()
	req.Iterations = 0
	if _, err := svc.Predict(req); err == nil {
		t.Error("zero iterations should fail")
	}
	req = baseRequest()
	req.Platform = "not-this-platform"
	if _, err := svc.Predict(req); err == nil {
		t.Error("mismatched platform name should fail")
	}
	req.Platform = svc.Name()
	if _, err := svc.Predict(req); err != nil {
		t.Errorf("matching platform name: %v", err)
	}
	if err := svc.Advance(-1); err == nil {
		t.Error("negative advance should fail")
	}
}

func TestPartitionPinning(t *testing.T) {
	svc := burstyService(t, 5, 300)
	req := baseRequest()
	part, err := svc.Partition(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Partition = part
	pred, err := svc.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Partition != part {
		t.Error("pinned partition not carried through")
	}
	// A time-balanced request yields a valid alternative decomposition.
	tb := baseRequest()
	tb.TimeBalanced = true
	tbPart, err := svc.Partition(tb)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbPart.Validate(); err != nil {
		t.Errorf("time-balanced partition invalid: %v", err)
	}
}

func TestPriorFallbackUnderTotalOutage(t *testing.T) {
	// Every sensor dark from t=0: the fallback chain must bottom out at
	// the conservative prior instead of erroring.
	var fs []predict.FaultSpec
	for m := 0; m < cluster.Platform2().Size(); m++ {
		fs = append(fs, predict.FaultSpec{Machine: m, Outages: []predict.OutageSpec{{Start: 0, End: 1e9}}})
	}
	svc := burstyService(t, 3, 200, fs...)
	pred, err := svc.Predict(baseRequest())
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range pred.Loads {
		if l.Load != predict.DefaultCPUPrior {
			t.Errorf("machine %d load=%v, want prior %v", i, l.Load, predict.DefaultCPUPrior)
		}
		if l.Gaps.Outage == 0 {
			t.Errorf("machine %d recorded no outage misses", i)
		}
		if l.Staleness == 0 {
			t.Errorf("machine %d staleness=0 under permanent outage", i)
		}
	}
	if !pred.Degraded() {
		t.Error("permanent outage should mark the prediction degraded")
	}
}

func TestDedicatedNetworkSkipsBandwidth(t *testing.T) {
	spec := burstySpec(t, 1, 200)
	spec.Net = nil
	svc, err := predict.NewServiceFromSpec(&spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := svc.Predict(baseRequest())
	if err != nil {
		t.Fatal(err)
	}
	if pred.Bandwidth != stochastic.Point(1) {
		t.Errorf("constant network bandwidth=%v, want Point(1)", pred.Bandwidth)
	}
	if pred.BWGaps != (predict.Prediction{}).BWGaps {
		t.Errorf("constant network BWGaps=%+v, want zero", pred.BWGaps)
	}
	if r := svc.Readout(); r.BWGaps != (predict.Prediction{}).BWGaps {
		t.Errorf("readout BWGaps=%+v, want zero", r.BWGaps)
	}
}

func TestReportsAndGaps(t *testing.T) {
	svc := burstyService(t, 11, 400, predict.FaultSpec{Machine: 0, Drop: 0.5})
	reports := svc.Readout().Reports
	if len(reports) != svc.Platform().Size() {
		t.Fatalf("reports=%d", len(reports))
	}
	if reports[0].Gaps.Dropped == 0 {
		t.Error("machine 0 should have dropped samples")
	}
	if reports[1].Gaps.Dropped != 0 {
		t.Errorf("machine 1 has no schedule but dropped %d", reports[1].Gaps.Dropped)
	}
	// The reports are the tick's one read: what a same-tick prediction
	// carries, whether the tick cache holds the read or each call repeats it.
	for _, noCache := range []bool{false, true} {
		svc := shardService(t, 11, noCache)
		p, err := svc.Predict(baseRequest())
		if err != nil {
			t.Fatal(err)
		}
		r := svc.Readout()
		if !reflect.DeepEqual(r.Reports, p.Loads) {
			t.Errorf("cache off=%v: Readout().Reports = %+v, the same tick's Prediction.Loads = %+v", noCache, r.Reports, p.Loads)
		}
		if r.Time != p.Time || r.BWGaps != p.BWGaps {
			t.Errorf("cache off=%v: Readout() at %g with bandwidth gaps %+v; the prediction's time is %g, its bandwidth gaps %+v",
				noCache, r.Time, r.BWGaps, p.Time, p.BWGaps)
		}
	}
}

func TestRegistry(t *testing.T) {
	reg := predict.NewRegistry()
	if _, err := reg.Lookup(""); err == nil {
		t.Error("empty registry lookup should fail")
	}
	spec2 := burstySpec(t, 3, 100)
	if err := reg.RegisterSpec(spec2); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterSpec(spec2); err == nil {
		t.Error("duplicate register should fail")
	}
	// With a single platform, the empty name resolves to it.
	svc2, err := reg.Lookup("")
	if err != nil || svc2.Name() != spec2.Name {
		t.Fatalf("single-platform empty lookup: %v, %v", svc2, err)
	}
	if s, err := reg.Lookup(spec2.Name); err != nil || s != svc2 {
		t.Errorf("named lookup: %v, %v, want the instantiated service", s, err)
	}
	spec1, err := predict.SimulatedSpec(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec1.Warmup = 100
	if err := reg.RegisterSpec(spec1); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Lookup(""); err == nil {
		t.Error("ambiguous empty lookup should fail")
	}
	names := reg.Names()
	if len(names) != 2 || names[0] > names[1] {
		t.Errorf("names=%v", names)
	}
	req := baseRequest()
	req.Platform = spec1.Name
	pred, err := reg.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Loads) != len(spec1.Machines) {
		t.Errorf("routed to wrong platform: %d machines", len(pred.Loads))
	}
	if _, err := reg.Lookup("nope"); err == nil || !strings.Contains(err.Error(), "unknown platform") {
		t.Errorf("unknown lookup err=%v", err)
	}
	if got := len(reg.Services()); got != 2 {
		t.Errorf("services=%d", got)
	}
}

func TestObserveLifecycle(t *testing.T) {
	svc := burstyService(t, 13, 300)
	pred, err := svc.Predict(baseRequest())
	if err != nil {
		t.Fatal(err)
	}
	if pred.ID == 0 {
		t.Fatal("prediction carries no ID")
	}
	if pred.CalibrationScale != 1 || pred.Value != pred.Raw {
		t.Errorf("unobserved service should return uncalibrated intervals: scale=%g value=%v raw=%v",
			pred.CalibrationScale, pred.Value, pred.Raw)
	}
	if svc.Outstanding() != 1 {
		t.Errorf("outstanding=%d", svc.Outstanding())
	}
	if drifted, err := svc.Observe(pred.ID, pred.Value.Mean); err != nil || drifted {
		t.Fatalf("observe: drifted=%v, %v", drifted, err)
	}
	if snap := svc.Accuracy(); snap.Observed != 1 || snap.CumRawCapture != 1 {
		t.Errorf("snapshot after one captured outcome: %+v", snap)
	}
	if svc.Outstanding() != 0 {
		t.Errorf("outstanding=%d after observe", svc.Outstanding())
	}
	if got := svc.Accuracy(); got.Observed != 1 {
		t.Errorf("accuracy observed=%d", got.Observed)
	}
	// Observing the same ID twice, an ID never issued, or a nonsense
	// runtime must all fail loudly.
	if _, err := svc.Observe(pred.ID, 1); err == nil {
		t.Error("double observe should fail")
	}
	if _, err := svc.Observe(99999, 1); err == nil {
		t.Error("never-issued prediction ID should fail")
	}
	if _, err := svc.Observe(pred.ID+1000, 1); err == nil {
		t.Error("unknown prediction ID should fail")
	}
	pred2, err := svc.Predict(baseRequest())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-3, 0, math.NaN(), math.Inf(1)} {
		if _, err := svc.Observe(pred2.ID, bad); err == nil {
			t.Errorf("actual %g should fail", bad)
		}
	}
	if got := svc.Accuracy(); got.Observed != 1 || math.IsNaN(got.MeanSignedRelErr) || got.Scale != 1 {
		t.Errorf("rejected actuals reached the calibrator: %+v", got)
	}
	// The rejected actuals must not have consumed the ID.
	if _, err := svc.Observe(pred2.ID, pred2.Value.Mean); err != nil {
		t.Errorf("valid observe after rejected actuals: %v", err)
	}
	// A discarded prediction leaves the ledger without touching the
	// calibrator, cannot be observed afterwards, and moves no later ID; an
	// unknown ID discards nothing.
	pred3, err := svc.Predict(baseRequest())
	if err != nil {
		t.Fatal(err)
	}
	svc.Discard(pred3.ID + 1000)
	if svc.Outstanding() != 1 {
		t.Errorf("outstanding=%d after discarding an unknown ID", svc.Outstanding())
	}
	svc.Discard(pred3.ID)
	if svc.Outstanding() != 0 || svc.Accuracy().Observed != 2 {
		t.Errorf("after discard: outstanding=%d observed=%d", svc.Outstanding(), svc.Accuracy().Observed)
	}
	if _, err := svc.Observe(pred3.ID, 1); err == nil {
		t.Error("observing a discarded prediction should fail")
	}
	if pred4, err := svc.Predict(baseRequest()); err != nil || pred4.ID != pred3.ID+1 {
		t.Errorf("prediction after a discard: ID %d err %v, want ID %d", pred4.ID, err, pred3.ID+1)
	}
}

// TestObserveCalibratesIntervals: consistently over-wide raw intervals
// tighten once enough outcomes accumulate, and the floor stops the
// tightening from collapsing the interval to a point.
func TestObserveCalibratesIntervals(t *testing.T) {
	svc := burstyService(t, 17, 300)
	req := baseRequest()
	for i := 0; i < 24; i++ {
		pred, err := svc.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		// Actual lands dead on the predicted mean: the model is "perfect",
		// so the claimed ±2σ interval is far too wide.
		if _, err := svc.Observe(pred.ID, pred.Raw.Mean); err != nil {
			t.Fatal(err)
		}
		if err := svc.Advance(5); err != nil {
			t.Fatal(err)
		}
	}
	pred, err := svc.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	if pred.CalibrationScale >= 1 {
		t.Errorf("scale=%g, want < 1 after 24 dead-center outcomes", pred.CalibrationScale)
	}
	if pred.CalibrationScale < calib.ScaleFloor {
		t.Errorf("scale=%g below floor", pred.CalibrationScale)
	}
	if pred.Value.Spread >= pred.Raw.Spread || pred.Value.Spread == 0 {
		t.Errorf("calibrated spread %g vs raw %g", pred.Value.Spread, pred.Raw.Spread)
	}
	if pred.Value.Mean != pred.Raw.Mean {
		t.Error("calibration must not move the mean")
	}
	if got := svc.Accuracy().Scale; got != pred.CalibrationScale {
		t.Errorf("diagnostics scale %g != applied scale %g", got, pred.CalibrationScale)
	}
}

// TestPredictHitAllocIndependentOfDriftLog: what a cached Predict allocates
// must not depend on how much history the platform's tracker has logged.
// The drift log is append-only, so anything on the hit path that copies it
// makes a hit cost more the longer the daemon has been up.
func TestPredictHitAllocIndependentOfDriftLog(t *testing.T) {
	const wantDrifts, hits = 200, 1000
	req := baseRequest()
	quiet := burstyService(t, 13, 300)
	drifted := burstyService(t, 13, 300)

	// Feed drifted wrong actuals in alternating regimes — dead centre for a
	// baseline's worth of outcomes, then ten sigma out, and back — so the
	// CUSUM fires at every flip. quiet gets as many dead-centre outcomes,
	// which leaves the two ledgers in the same state and its log empty.
	drifts, observes := 0, 0
	for high := false; drifts < wantDrifts; observes++ {
		if observes > 100*wantDrifts {
			t.Fatalf("only %d drift events after %d observes", drifts, observes)
		}
		pred, err := drifted.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		actual := pred.Raw.Mean
		if high {
			actual += 5 * pred.Raw.Spread
		}
		fired, err := drifted.Observe(pred.ID, actual)
		if err != nil {
			t.Fatal(err)
		}
		snap := drifted.Accuracy()
		if fired != (len(snap.Drifts) > drifts) {
			t.Fatalf("observe %d: drifted=%v, drift log %d -> %d", observes, fired, drifts, len(snap.Drifts))
		}
		if n := drifted.DriftCount(); n != len(snap.Drifts) {
			t.Fatalf("observe %d: DriftCount %d, drift log %d", observes, n, len(snap.Drifts))
		}
		drifts = len(snap.Drifts)
		if snap.SinceReset == calib.MinObserved {
			high = !high
		}
	}
	for i := 0; i < observes; i++ {
		pred, err := quiet.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := quiet.Observe(pred.ID, pred.Raw.Mean); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(quiet.Accuracy().Drifts); n != 0 {
		t.Fatalf("dead-centre outcomes logged %d drift events", n)
	}

	perHit := func(svc *predict.Service) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < hits; i++ {
			if _, err := svc.Predict(req); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / hits
	}
	q, d := perHit(quiet), perHit(drifted)
	if math.Abs(d-q) > 0.05*q {
		t.Errorf("a cached Predict allocates %.0f B with %d drift events logged, %.0f B with none", d, drifts, q)
	}
}

func TestRegistryObserve(t *testing.T) {
	reg := predict.NewRegistry()
	if err := reg.RegisterSpec(burstySpec(t, 19, 200)); err != nil {
		t.Fatal(err)
	}
	svc, err := reg.Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Observe("atlantis", 1, 1); err == nil {
		t.Error("unknown platform should fail")
	}
	pred, err := reg.Predict(predict.Request{Platform: svc.Name(), N: 120, Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Observe(svc.Name(), pred.ID, pred.Value.Mean); err != nil {
		t.Fatal(err)
	}
	if snap := svc.Accuracy(); snap.Observed != 1 {
		t.Errorf("routed observe recorded %d outcomes", snap.Observed)
	}
	if _, err := reg.Observe(svc.Name(), pred.ID+7, 1); err == nil {
		t.Error("never-issued ID should fail through the registry too")
	}
}

// TestObserveEviction: the issued-prediction ledger stays bounded when a
// caller predicts forever without observing.
func TestObserveEviction(t *testing.T) {
	svc := burstyService(t, 23, 200)
	req := baseRequest()
	var first uint64
	for i := 0; i < 4100; i++ {
		pred, err := svc.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = pred.ID
		}
	}
	if got := svc.Outstanding(); got != 4096 {
		t.Errorf("outstanding=%d, want the 4096 retention bound", got)
	}
	if _, err := svc.Observe(first, 1); err == nil {
		t.Error("evicted prediction should no longer be observable")
	}
}
