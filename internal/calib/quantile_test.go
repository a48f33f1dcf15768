package calib

import (
	"math"
	"testing"

	"prodpred/internal/dist"
	"prodpred/internal/stochastic"
)

// gridAround tabulates a normal-ish grid centered on mean with the given
// half-offsets per interval level.
func gridAround(mean float64, off []float64) []float64 {
	n := len(dist.IntervalLevels)
	g := make([]float64, 2*n+1)
	g[n] = mean
	for i := range dist.IntervalLevels {
		g[n-1-i] = mean - off[i]
		g[n+1+i] = mean + off[i]
	}
	return g
}

func distOutcome(id uint64, mean, actual float64) Outcome {
	return Outcome{
		ID:           id,
		Time:         float64(id),
		Raw:          stochastic.Value{Mean: mean, Spread: 1},
		Calibrated:   stochastic.Value{Mean: mean, Spread: 1},
		Actual:       actual,
		RawQuantiles: gridAround(mean, []float64{0.3, 0.55, 0.7, 0.85}),
	}
}

// quantileScales reads the per-level multipliers off a snapshot.
func quantileScales(tr *Tracker) (lo, hi []float64) {
	s := tr.Snapshot()
	return s.QuantileScaleLo, s.QuantileScaleHi
}

func TestQuantileScalesWidenUnderCoveredTails(t *testing.T) {
	tr := mustNew(t)
	// Actuals land alternately far above and far below the grid's outer
	// quantiles: every level under-covers on both sides, so every
	// multiplier must rise above 1. Alternation keeps the CUSUM drift
	// detector quiet.
	for i := 0; i < 40; i++ {
		d := 2.0
		if i%2 == 1 {
			d = -2.0
		}
		tr.Observe(distOutcome(uint64(i+1), 10, 10+d))
	}
	lo, hi := quantileScales(tr)
	for i := range dist.IntervalLevels {
		if !(lo[i] > 1) || !(hi[i] > 1) {
			t.Fatalf("level %g scales lo=%g hi=%g, want both > 1 (all %v / %v)",
				dist.IntervalLevels[i], lo[i], hi[i], lo, hi)
		}
	}
	snap := tr.Snapshot()
	if snap.PITCount == 0 {
		t.Fatal("no PIT scored")
	}
	if math.Abs(snap.MeanPIT-0.5) > 0.1 {
		t.Fatalf("alternating outcomes mean PIT %g, want near 0.5", snap.MeanPIT)
	}
}

func TestQuantileScalesTightenOverCoveredGrid(t *testing.T) {
	tr := mustNew(t)
	// Actuals hug the median: the grid is far too wide everywhere and the
	// multipliers should drop below 1 (down to the floor).
	for i := 0; i < 40; i++ {
		d := 0.01
		if i%2 == 1 {
			d = -0.01
		}
		tr.Observe(distOutcome(uint64(i+1), 10, 10+d))
	}
	lo, hi := quantileScales(tr)
	for i := range dist.IntervalLevels {
		if !(lo[i] < 1) || !(hi[i] < 1) {
			t.Fatalf("level %g scales lo=%g hi=%g, want both < 1", dist.IntervalLevels[i], lo[i], hi[i])
		}
		if lo[i] < QScaleFloor || hi[i] < QScaleFloor {
			t.Fatalf("scales %g/%g fell below floor %g", lo[i], hi[i], QScaleFloor)
		}
	}
}

func TestQuantileScalesAsymmetric(t *testing.T) {
	tr := mustNew(t)
	// Upper tail under-covers (large positive surprises), lower side is
	// fine: hi multipliers must exceed lo multipliers.
	for i := 0; i < 60; i++ {
		d := -0.05
		if i%3 == 0 {
			d = 2.5
		}
		tr.Observe(distOutcome(uint64(i+1), 10, 10+d))
	}
	lo, hi := quantileScales(tr)
	for i := range dist.IntervalLevels {
		if !(hi[i] > lo[i]) {
			t.Fatalf("level %g: hi %g not above lo %g under upper-tail misses", dist.IntervalLevels[i], hi[i], lo[i])
		}
	}
}

func TestCalibrateQuantilesAppliesScalesAndStaysMonotone(t *testing.T) {
	tr := mustNew(t)
	for i := 0; i < 40; i++ {
		d := 2.0
		if i%2 == 1 {
			d = -2.0
		}
		tr.Observe(distOutcome(uint64(i+1), 10, 10+d))
	}
	raw := gridAround(10, []float64{0.3, 0.55, 0.7, 0.85})
	_, cal := tr.Overlay(stochastic.Value{}, raw)
	if len(cal) != len(raw) {
		t.Fatalf("calibrated grid has %d points, want %d", len(cal), len(raw))
	}
	n := len(dist.IntervalLevels)
	if cal[n] != raw[n] {
		t.Fatalf("median moved: %g -> %g", raw[n], cal[n])
	}
	prev := math.Inf(-1)
	for i, q := range cal {
		if q < prev {
			t.Fatalf("calibrated grid not monotone at %d: %g < %g", i, q, prev)
		}
		prev = q
	}
	// Widening scales must push the outer quantiles outward.
	if !(cal[0] < raw[0]) || !(cal[len(cal)-1] > raw[len(raw)-1]) {
		t.Fatalf("outer quantiles not widened: [%g,%g] vs raw [%g,%g]",
			cal[0], cal[len(cal)-1], raw[0], raw[len(raw)-1])
	}
}

func TestCalibrateQuantilesPassesThroughUnexpectedLength(t *testing.T) {
	tr := mustNew(t)
	raw := []float64{1, 2, 3}
	_, got := tr.Overlay(stochastic.Value{}, raw)
	for i := range raw {
		if got[i] != raw[i] {
			t.Fatalf("unexpected-length grid modified: %v -> %v", raw, got)
		}
	}
}

func TestQuantileStateRoundTrip(t *testing.T) {
	tr := mustNew(t)
	for i := 0; i < 40; i++ {
		d := 2.0
		if i%2 == 1 {
			d = -2.0
		}
		tr.Observe(distOutcome(uint64(i+1), 10, 10+d))
	}
	st := tr.ExportState()
	tr2 := mustNew(t)
	if err := tr2.ImportState(st); err != nil {
		t.Fatal(err)
	}
	lo1, hi1 := quantileScales(tr)
	lo2, hi2 := quantileScales(tr2)
	for i := range dist.IntervalLevels {
		if lo1[i] != lo2[i] || hi1[i] != hi2[i] {
			t.Fatalf("restored scales differ at level %g: %g/%g vs %g/%g",
				dist.IntervalLevels[i], lo2[i], hi2[i], lo1[i], hi1[i])
		}
	}
	// Further identical observations must keep the trackers in lockstep.
	for i := 40; i < 60; i++ {
		d := 2.0
		if i%2 == 1 {
			d = -2.0
		}
		o := distOutcome(uint64(i+1), 10, 10+d)
		tr.Observe(o)
		tr2.Observe(o)
	}
	lo1, hi1 = quantileScales(tr)
	lo2, hi2 = quantileScales(tr2)
	for i := range dist.IntervalLevels {
		if lo1[i] != lo2[i] || hi1[i] != hi2[i] {
			t.Fatalf("post-restore divergence at level %g", dist.IntervalLevels[i])
		}
	}
}

func TestQuantileShiftRecentersBiasedGrid(t *testing.T) {
	tr := mustNew(t)
	// The model systematically overpredicts: actuals sit ~12% below the
	// predictive median. A pure around-the-median stretch cannot repair
	// that; the conformal median shift must.
	for i := 0; i < 40; i++ {
		d := 0.1
		if i%2 == 1 {
			d = -0.1
		}
		tr.Observe(distOutcome(uint64(i+1), 10, 8.8+d))
	}
	if shift := tr.Snapshot().QuantileShift; shift < -0.15 || shift > -0.09 {
		t.Fatalf("shift %g, want near -0.12", shift)
	}
	raw := gridAround(10, []float64{0.3, 0.55, 0.7, 0.85})
	_, cal := tr.Overlay(stochastic.Value{}, raw)
	n := len(dist.IntervalLevels)
	if !(cal[n] < 9.2) {
		t.Fatalf("calibrated median %g, want recentered below 9.2", cal[n])
	}
	// The recentered 95% interval must reach the biased actuals (the
	// conformal bound lands exactly on the extreme outcomes here).
	if !(cal[0] <= 8.7+1e-9) || !(cal[len(cal)-1] >= 8.9-1e-9) {
		t.Fatalf("recentered interval [%g, %g] misses actuals around 8.8", cal[0], cal[len(cal)-1])
	}
}

func TestDriftResetClearsQuantileScales(t *testing.T) {
	tr := mustNew(t)
	for i := 0; i < 40; i++ {
		d := 2.0
		if i%2 == 1 {
			d = -2.0
		}
		tr.Observe(distOutcome(uint64(i+1), 10, 10+d))
	}
	lo, _ := quantileScales(tr)
	if lo[0] == 1 {
		t.Fatal("scales never moved; test needs a moving baseline")
	}
	tr.mu.Lock()
	tr.resetLocked()
	tr.mu.Unlock()
	lo, hi := quantileScales(tr)
	for i := range dist.IntervalLevels {
		if lo[i] != 1 || hi[i] != 1 {
			t.Fatalf("post-reset scales %v/%v, want all 1", lo, hi)
		}
	}
}

func TestDriftResetKeepsQuantileShift(t *testing.T) {
	tr := mustNew(t)
	// Persistent ~12% overprediction: the shift is model bias, so a drift
	// reset (a load-regime event) must not discard it.
	for i := 0; i < 40; i++ {
		d := 0.1
		if i%2 == 1 {
			d = -0.1
		}
		tr.Observe(distOutcome(uint64(i+1), 10, 8.8+d))
	}
	before := tr.Snapshot().QuantileShift
	if before >= -0.09 {
		t.Fatalf("shift %g never engaged; test needs a biased baseline", before)
	}
	tr.mu.Lock()
	tr.resetLocked()
	tr.mu.Unlock()
	if after := tr.Snapshot().QuantileShift; after != before {
		t.Fatalf("drift reset changed shift %g -> %g; model bias should survive regime resets", before, after)
	}
}
