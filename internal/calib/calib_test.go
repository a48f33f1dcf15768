package calib

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"prodpred/internal/stochastic"
)

// mk builds the outcome with the given standardized residual z against a
// fixed raw prediction 10 ± 2 (σ = 1).
func mk(i int, z float64) Outcome {
	raw := stochastic.New(10, 2)
	return Outcome{
		ID:         uint64(i),
		Time:       float64(i) * 5,
		Raw:        raw,
		Calibrated: raw,
		Actual:     10 + z,
	}
}

// jitter is a small deterministic unimodal perturbation.
func jitter(i int) float64 { return 0.05 * float64(i%7-3) }

func mustNew(t *testing.T) *Tracker {
	t.Helper()
	tr, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCaptureAccounting(t *testing.T) {
	tr := mustNew(t)
	// 8 captured, 2 escaped (z = ±5 is outside a ±2σ interval).
	for i := 0; i < 8; i++ {
		tr.Observe(mk(i, jitter(i)))
	}
	tr.Observe(mk(8, 5))
	tr.Observe(mk(9, -5))
	s := tr.Snapshot()
	if s.Observed != 10 || s.WindowFill != 10 {
		t.Fatalf("observed=%d fill=%d", s.Observed, s.WindowFill)
	}
	if s.RawCapture != 0.8 || s.CumRawCapture != 0.8 {
		t.Errorf("raw capture=%g cum=%g, want 0.8", s.RawCapture, s.CumRawCapture)
	}
	if s.MeanRawWidth != 4 {
		t.Errorf("mean raw width=%g, want 4 (2×spread)", s.MeanRawWidth)
	}
	if s.LastTime != 45 {
		t.Errorf("last time=%g", s.LastTime)
	}
	if s.MeanAbsRelErr <= 0 {
		t.Errorf("mean abs rel err=%g", s.MeanAbsRelErr)
	}
}

func TestConformalTightening(t *testing.T) {
	tr := mustNew(t)
	// Residuals far smaller than the claimed half-width: scores ≈ 0.05,
	// so the conformal quantile drops and the floor clamps the scale.
	for i := 0; i < 32; i++ {
		tr.Observe(mk(i, 0.1+0.02*float64(i%5)))
	}
	s := tr.Snapshot()
	if s.Scale != ScaleFloor {
		t.Errorf("scale=%g, want floor %g for near-perfect predictions", s.Scale, ScaleFloor)
	}
	cal := tr.Calibrate(stochastic.New(10, 2))
	if cal.Mean != 10 || cal.Spread != 2*ScaleFloor {
		t.Errorf("calibrated=%v", cal)
	}
}

func TestConformalWidening(t *testing.T) {
	// Residuals routinely escape the raw interval: scores ≈ 1.5-2, so the
	// scale must rise above 1 — and the calibrated interval must then
	// capture what the raw one missed.
	tr := mustNew(t)
	for i := 0; i < 40; i++ {
		z := 3.0 + jitter(i) // outside ±2σ every time
		if i%2 == 0 {
			z = -z
		}
		raw := stochastic.New(10, 2)
		o := Outcome{ID: uint64(i), Time: float64(i) * 5, Raw: raw,
			Calibrated: tr.Calibrate(raw), Actual: 10 + z}
		tr.Observe(o)
	}
	s := tr.Snapshot()
	if s.Scale <= 1 {
		t.Fatalf("scale=%g, want > 1 when raw intervals under-cover", s.Scale)
	}
	if s.Scale > ScaleCeil {
		t.Fatalf("scale=%g above ceiling", s.Scale)
	}
	if s.CalibratedCapture <= s.RawCapture {
		t.Errorf("calibrated capture %g not above raw %g", s.CalibratedCapture, s.RawCapture)
	}
}

func TestScaleCeiling(t *testing.T) {
	// Every residual is +20σ: scores ≈ 10, far past the ceiling, and the
	// same sign throughout, so the CUSUM's baseline absorbs the offset and
	// the armed detector stays quiet.
	tr := mustNew(t)
	for i := 0; i < 30; i++ {
		tr.Observe(mk(i, 20+jitter(i)))
	}
	if s := tr.Snapshot(); s.Scale != ScaleCeil {
		t.Errorf("scale=%g, want ceiling %g", s.Scale, ScaleCeil)
	}
}

func TestPointPredictionsPassThrough(t *testing.T) {
	tr := mustNew(t)
	if got := tr.Calibrate(stochastic.Point(7)); got != stochastic.Point(7) {
		t.Errorf("point value calibrated to %v", got)
	}
	// Point outcomes count toward capture but not toward the score
	// quantiles, so the scale stays 1 no matter how many arrive.
	for i := 0; i < 30; i++ {
		tr.Observe(Outcome{ID: uint64(i), Time: float64(i), Raw: stochastic.Point(10),
			Calibrated: stochastic.Point(10), Actual: 11})
	}
	s := tr.Snapshot()
	if s.Scale != 1 {
		t.Errorf("scale=%g from point-only outcomes", s.Scale)
	}
	if s.RawCapture != 0 {
		t.Errorf("point interval captured a mismatched actual: %g", s.RawCapture)
	}
}

func TestCUSUMDriftAndReset(t *testing.T) {
	tr := mustNew(t)
	// Steady regime, then a sustained +4σ shift in the residuals.
	var fired *DriftEvent
	for i := 0; i < 40; i++ {
		z := jitter(i)
		if i >= 30 {
			z = 4 + jitter(i)
		}
		if ev, ok := tr.Observe(mk(i, z)); ok {
			if fired != nil {
				t.Fatalf("second drift at %d: %+v", i, ev)
			}
			e := ev
			fired = &e
		}
	}
	if fired == nil {
		t.Fatal("sustained 4σ residual shift did not fire the CUSUM")
	}
	if fired.Reason != ReasonCUSUM {
		t.Errorf("reason=%q", fired.Reason)
	}
	if fired.Seq <= 30 || fired.Seq > 35 {
		t.Errorf("drift at seq %d, want shortly after the shift at 31", fired.Seq)
	}
	s := tr.Snapshot()
	if len(s.Drifts) != 1 || tr.DriftCount() != 1 {
		t.Fatalf("drifts=%d, DriftCount %d", len(s.Drifts), tr.DriftCount())
	}
	if s.SinceReset >= s.Observed {
		t.Errorf("sinceReset=%d not reset (observed=%d)", s.SinceReset, s.Observed)
	}
	if s.Scale != 1 {
		t.Errorf("scale=%g after reset, want 1", s.Scale)
	}
}

func TestNoDriftOnSteadyStream(t *testing.T) {
	tr := mustNew(t)
	for i := 0; i < 200; i++ {
		if ev, ok := tr.Observe(mk(i, jitter(i))); ok {
			t.Fatalf("steady stream drifted at %d: %+v", i, ev)
		}
	}
	if s := tr.Snapshot(); len(s.Drifts) != 0 {
		t.Errorf("drifts=%v", s.Drifts)
	}
}

func TestModeCountDrift(t *testing.T) {
	// Residuals stay near zero mean throughout (the CUSUM sees nothing)
	// but switch from unimodal noise to a ±2σ bimodal alternation — the
	// Platform-2-style bursty shift the mode check exists for.
	tr := mustNew(t)
	var fired *DriftEvent
	for i := 0; i < 120; i++ {
		z := jitter(i)
		if i >= 60 {
			z = 2 + 0.1*jitter(i)
			if i%2 == 0 {
				z = -z
			}
		}
		if ev, ok := tr.Observe(mk(i, z)); ok {
			e := ev
			fired = &e
			break
		}
	}
	if fired == nil {
		t.Fatal("bimodal residual shift never detected")
	}
	if fired.Reason != ReasonModeCount {
		t.Errorf("reason=%q, want %q", fired.Reason, ReasonModeCount)
	}
	if fired.Stat < 2 {
		t.Errorf("mode count=%g", fired.Stat)
	}
	if fired.Seq <= 60 {
		t.Errorf("drift at seq %d, before the shift at 61", fired.Seq)
	}
}

// TestDeterministicState: two trackers fed the identical observation
// sequence hold byte-identical state, including under concurrent readers.
func TestDeterministicState(t *testing.T) {
	run := func() string {
		tr := mustNew(t)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		// Concurrent readers must not perturb the write path.
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_ = tr.Snapshot()
						_ = tr.Calibrate(stochastic.New(10, 2))
					}
				}
			}()
		}
		for i := 0; i < 150; i++ {
			z := jitter(i)
			switch {
			case i >= 100:
				z = 2.5 + jitter(i)
			case i >= 50 && i%3 == 0:
				z = 2.2 // occasional escapes to move the quantile
			}
			tr.Observe(mk(i, z))
		}
		close(stop)
		wg.Wait()
		return fmt.Sprintf("%#v", tr.Snapshot())
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same observation order diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestConcurrentObserve: parallel Observe calls race-cleanly; the
// commutative aggregates agree with the sequential result.
func TestConcurrentObserve(t *testing.T) {
	tr := mustNew(t)
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr.Observe(mk(i, jitter(i)))
		}(i)
	}
	wg.Wait()
	s := tr.Snapshot()
	if s.Observed != n {
		t.Errorf("observed=%d", s.Observed)
	}
	if s.CumRawCapture != 1 {
		t.Errorf("capture=%g, want 1 (every jitter residual is inside ±2σ)", s.CumRawCapture)
	}
	if math.IsNaN(s.Scale) || s.Scale <= 0 {
		t.Errorf("scale=%g", s.Scale)
	}
}
