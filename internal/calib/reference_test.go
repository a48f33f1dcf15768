package calib

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"prodpred/internal/dist"
	"prodpred/internal/modal"
	"prodpred/internal/stats"
	"prodpred/internal/stochastic"
)

// The reference calibrator: the Tracker's quantiles and drift detector
// written the direct way — each quantile sorts a copy of its sample and reads
// it, and every mode check fits a mixture whether or not its verdict is read.
// refObserve drives a Tracker through them, so a tracker fed this way and one
// fed through Observe must agree bit for bit.

func refObserve(t *Tracker, o Outcome) (DriftEvent, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev, drifted := refDetect(t, t.recordLocked(o))
	if drifted {
		t.drifts = append(t.drifts, ev)
		t.resetLocked()
		return ev, true
	}
	refRescale(t)
	refRescaleQuantiles(t)
	return DriftEvent{}, false
}

func refQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.QuantileSorted(s, q)
}

func refRescale(t *Tracker) {
	var scores []float64
	for _, r := range t.regimeWindowLocked() {
		if !r.Excluded {
			scores = append(scores, r.Score)
		}
	}
	n := len(scores)
	if n < MinObserved {
		t.scale = 1
		return
	}
	level := math.Ceil(float64(n+1)*TargetCapture) / float64(n)
	if level > 1 {
		level = 1
	}
	t.scale = math.Min(math.Max(refQuantile(scores, level), ScaleFloor), ScaleCeil)
}

func refRescaleQuantiles(t *Tracker) {
	n := len(dist.IntervalLevels)
	t.qShift = 0
	for i := 0; i < n; i++ {
		t.qLo[i], t.qHi[i] = 1, 1
	}
	var resid []float64
	for _, r := range t.window {
		if r.Qok {
			resid = append(resid, r.QRel-1)
		}
	}
	if len(resid) >= MinObserved {
		t.qShift = math.Min(math.Max(refQuantile(resid, 0.5), -qShiftLimit), qShiftLimit)
	}
	regime := t.regimeWindowLocked()
	m := 0
	for _, r := range regime {
		if r.Qok {
			m++
		}
	}
	if m < MinObserved {
		return
	}
	for side := 0; side < 2; side++ {
		for i, L := range dist.IntervalLevels {
			var scores []float64
			for _, r := range regime {
				if !r.Qok {
					continue
				}
				if side == 0 {
					scores = append(scores, ((1+t.qShift)-r.QRel)/r.QsLo[i])
				} else {
					scores = append(scores, (r.QRel-(1+t.qShift))/r.QsHi[i])
				}
			}
			level := math.Ceil(float64(m+1)*(1+L)/2) / float64(m)
			if level > 1 {
				level = 1
			}
			q := math.Min(math.Max(refQuantile(scores, level), QScaleFloor), QScaleCeil)
			if side == 0 {
				t.qLo[i] = q
			} else {
				t.qHi[i] = q
			}
		}
	}
}

func refDetect(t *Tracker, r *WindowRec) (DriftEvent, bool) {
	if r.Excluded {
		return DriftEvent{}, false
	}
	if t.baseN < MinObserved {
		t.baseN++
		t.baseSum += r.Z
		r.Armed = false
		return DriftEvent{}, false
	}
	r.Armed = true
	d := r.Z - t.baseSum/float64(t.baseN)
	t.cusumPos = math.Max(0, t.cusumPos+d-CUSUMSlack)
	t.cusumNeg = math.Max(0, t.cusumNeg-d-CUSUMSlack)
	if stat := math.Max(t.cusumPos, t.cusumNeg); stat > CUSUMLimit {
		return DriftEvent{Time: r.Time, Seq: t.observed, Reason: ReasonCUSUM, Stat: stat}, true
	}
	t.sinceCheck++
	if t.sinceCheck < ModeCheck {
		return DriftEvent{}, false
	}
	t.sinceCheck = 0
	var zs []float64
	for _, w := range t.regimeWindowLocked() {
		if !w.Excluded {
			zs = append(zs, w.Z)
		}
	}
	if len(zs) < 2*MinObserved {
		return DriftEvent{}, false
	}
	mm, err := modal.FitBIC(zs, MaxModes)
	if err != nil {
		return DriftEvent{}, false
	}
	k := mm.K()
	if t.baseModes == 0 {
		t.baseModes = k
		return DriftEvent{}, false
	}
	if t.baseModes == 1 && k >= 2 {
		return DriftEvent{Time: r.Time, Seq: t.observed, Reason: ReasonModeCount, Stat: float64(k)}, true
	}
	return DriftEvent{}, false
}

// refImport is ImportState for the reference side: the import recomputes
// the quantile state, so recompute it again the reference way.
func refImport(t *Tracker, st State) error {
	if err := t.ImportState(st); err != nil {
		return err
	}
	t.mu.Lock()
	refRescaleQuantiles(t)
	t.mu.Unlock()
	return nil
}

// phase is a stretch of a reference sequence: its standardized residuals
// come from modes (equal weights, drawn alternately so a zero-mean mixture
// leaves the CUSUM quiet) at spread sd around a level shifted by shift.
type phase struct {
	steps int
	modes []float64
	sd    float64
	shift float64
}

// refOutcome builds one outcome with standardized residual z against a
// prediction whose mean and quantile grid wander. Every 11th is a point
// prediction (excluded from scores and residuals), every 13th carries no
// grid and every 17th a grid with a collapsed side, so neither is Qok.
func refOutcome(rng *rand.Rand, i int, z float64) Outcome {
	mean := 20 + 4*math.Sin(float64(i)/7)
	raw := stochastic.FromMeanSigma(mean, 1+0.3*rng.Float64())
	off := []float64{0.6, 1.2, 1.6, 1.9}
	for j := range off {
		off[j] *= raw.Sigma() * (0.7 + 0.6*rng.Float64())
	}
	grid := gridAround(mean, off)
	actual := mean + z*raw.Sigma()
	switch {
	case i%11 == 0:
		raw = stochastic.Point(mean)
	case i%13 == 0:
		grid = nil
	case i%17 == 0:
		grid[len(dist.IntervalLevels)+2] = grid[len(dist.IntervalLevels)]
	}
	return Outcome{ID: uint64(i + 1), Time: float64(i) * 5, Raw: raw, Calibrated: raw, Actual: actual, RawQuantiles: grid}
}

// stateString renders everything a tracker exposes; %v prints the shortest
// decimal that round-trips, so equal strings mean equal bits (-0 included).
func stateString(t *Tracker) string {
	return fmt.Sprintf("%+v\n%+v", t.ExportState(), t.Snapshot())
}

// TestTrackerMatchesReference drives a Tracker and the reference calibrator
// through seeded outcome sequences — unimodal and bimodal residuals, regime
// switches that fire both detectors, excluded and grid-less outcomes, and a
// snapshot round trip at random steps — and compares every exposed field
// after every outcome.
func TestTrackerMatchesReference(t *testing.T) {
	sequences := map[string][]phase{
		// Unimodal, then a level shift the CUSUM catches, then unimodal.
		"unimodal-cusum": {{120, []float64{0}, 1, 0}, {60, []float64{0}, 1, 3}, {100, []float64{0}, 0.7, 0}},
		// Unimodal, then a bimodal alternation the mode check catches.
		"unimodal-to-bimodal": {{100, []float64{0}, 0.6, 0}, {120, []float64{-2, 2}, 0.15, 0}},
		// Bimodal from the start (a multi-modal baseline whose checks fit
		// nothing), then a level shift that resets it, then bimodal again.
		"bimodal-cusum": {{150, []float64{-1.8, 1.8}, 0.2, 0}, {40, []float64{-1.8, 1.8}, 0.2, 4}, {150, []float64{-2, 2}, 0.2, 0}},
	}
	var multiModalReset bool
	reasons := map[string]int{}
	for name, phases := range sequences {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := mustNew(t), mustNew(t)
			i := 0
			for _, ph := range phases {
				for s := 0; s < ph.steps; s++ {
					z := ph.shift + ph.modes[i%len(ph.modes)] + ph.sd*rng.NormFloat64()
					o := refOutcome(rng, i, z)
					wasMulti := got.ExportState().BaseModes >= 2
					gotEv, gotFired := got.Observe(o)
					wantEv, wantFired := refObserve(want, o)
					if gotEv != wantEv || gotFired != wantFired {
						t.Fatalf("%s seed %d step %d: drift %+v %v, reference %+v %v", name, seed, i, gotEv, gotFired, wantEv, wantFired)
					}
					if gotScale, wantScale := got.Scale(), want.ExportState().Scale; gotScale != wantScale {
						t.Fatalf("%s seed %d step %d: Scale reads %g, reference state holds %g", name, seed, i, gotScale, wantScale)
					}
					if gotFired {
						reasons[gotEv.Reason]++
						multiModalReset = multiModalReset || wasMulti
					}
					if g, w := stateString(got), stateString(want); g != w {
						t.Fatalf("%s seed %d step %d: state\n%s\nreference\n%s", name, seed, i, g, w)
					}
					if rng.Intn(40) == 0 {
						st, rst := got.ExportState(), want.ExportState()
						got, want = mustNew(t), mustNew(t)
						if err := got.ImportState(st); err != nil {
							t.Fatal(err)
						}
						if err := refImport(want, rst); err != nil {
							t.Fatal(err)
						}
						if g, w := stateString(got), stateString(want); g != w {
							t.Fatalf("%s seed %d step %d: restored state\n%s\nreference\n%s", name, seed, i, g, w)
						}
					}
					i++
				}
			}
		}
	}
	if reasons[ReasonCUSUM] == 0 || reasons[ReasonModeCount] == 0 {
		t.Errorf("drift resets by reason %v: the sequences must fire both detectors", reasons)
	}
	if !multiModalReset {
		t.Error("no sequence reset a regime that began multi-modal: the skipped fits were never followed by a reset")
	}
}
