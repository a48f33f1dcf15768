package calib

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"prodpred/internal/stochastic"
)

// feedOutcomes drives n deterministic outcomes through tr, exercising
// capture hits and misses, excluded point predictions, and (for large n)
// the drift detector.
func feedOutcomes(t *testing.T, tr *Tracker, start, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	// Burn the stream up to start so two trackers fed [0,k) and [k,n) with
	// the same generator seed see the same values as one fed [0,n).
	for i := 0; i < start*2; i++ {
		rng.NormFloat64()
	}
	for i := start; i < start+n; i++ {
		raw := stochastic.New(10+math.Sin(float64(i)/9), 1.2)
		if i%17 == 0 {
			raw = stochastic.Point(10) // excluded from score quantiles
		}
		actual := raw.Mean + rng.NormFloat64()*0.8
		if i > start && i%23 == 0 {
			actual = raw.Mean + 6 // an occasional gross miss
		}
		rng.NormFloat64() // keep the stream in lockstep with the burn loop
		tr.Observe(Outcome{
			ID:         uint64(i + 1),
			Time:       float64(i) * 5,
			Raw:        raw,
			Calibrated: tr.Calibrate(raw),
			Actual:     math.Abs(actual) + 0.1,
		})
	}
}

// TestTrackerStateRoundTrip asserts that exporting a tracker's state into
// a fresh tracker with the same config reproduces the original exactly,
// including after both ingest the same further outcomes.
func TestTrackerStateRoundTrip(t *testing.T) {
	a := mustNew(t)
	feedOutcomes(t, a, 0, 150)

	b := mustNew(t)
	if err := b.ImportState(a.ExportState()); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatalf("snapshots diverge after import:\n%+v\nvs\n%+v", a.Snapshot(), b.Snapshot())
	}

	// Continue both with identical outcomes; they must stay in lockstep.
	feedOutcomes(t, a, 150, 80)
	feedOutcomes(t, b, 150, 80)
	if !reflect.DeepEqual(a.ExportState(), b.ExportState()) {
		t.Fatal("tracker states diverge after continued observation")
	}
}

func TestTrackerImportStateValidates(t *testing.T) {
	tr := mustNew(t)
	if err := tr.ImportState(State{Window: make([]WindowRec, Window+1), Scale: 1}); err == nil {
		t.Fatal("want error for oversized window")
	}
	if err := tr.ImportState(State{Scale: 0}); err == nil {
		t.Fatal("want error for non-positive scale")
	}
}
