package experiments

import (
	"fmt"
	"strings"

	"prodpred/internal/predict"
	"prodpred/internal/sched"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
	"prodpred/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "calib-replay",
		Title: "Online calibration: Platform 1/2 replay with the feedback loop closed",
		Paper: "The paper scores its stochastic intervals offline, after the fact (§3). Here the same production replays feed each measured runtime back to an online conformal calibrator: raw and calibrated intervals are compared over identical sample paths, and a CUSUM + mode-count detector watches the residuals for the bursty regime changes of §3.2.",
		Run:   runCalibReplay,
	})
}

// calibScenario is one replayed platform with the observe loop closed.
type calibScenario struct {
	name string
	key  string // metric key prefix
	spec func(seed int64) predict.PlatformSpec
	// wantDrift notes whether the load path contains an injected regime
	// change the detector is expected to flag.
	wantDrift bool
}

// switchAt is the injected regime change of the third scenario: steady
// light load until this virtual time, Platform-2-bursty after it. The
// series warms up for 600 s and cycles every ~20 s, so roughly the first
// twenty runs precede the switch and the remainder follow it.
const switchAt = 1000.0

func calibScenarios() []calibScenario {
	return []calibScenario{
		{
			name: "Platform 1, steady center-mode",
			key:  "p1",
			spec: func(seed int64) predict.PlatformSpec {
				spec := simulatedSpec(1, seed+1)
				spec.Net.Seed = seed + 999
				spec.Warmup = 600
				return spec
			},
		},
		{
			name: "Platform 2, bursty 4-modal",
			key:  "p2",
			spec: burstySpec,
		},
		{
			name:      "Platform 2, light -> bursty switch",
			key:       "switch",
			wantDrift: true,
			spec: func(seed int64) predict.PlatformSpec {
				spec := burstySpec(seed)
				for i, bursty := range spec.CPU {
					light := workload.LoadSpec{Kind: "light", Seed: seed + 100 + int64(i)}
					spec.CPU[i] = workload.LoadSpec{Kind: "switch", At: []float64{switchAt}, Children: []workload.LoadSpec{light, bursty}}
				}
				return spec
			},
		},
	}
}

// rawCapture scores the uncalibrated intervals of an observed series — the
// "calibration off" replay over the exact same sample path, since Observe
// never moves the model's mean or the monitor state.
func rawCapture(recs []runRecord) (capture, meanWidth float64) {
	in := 0
	for _, r := range recs {
		if r.Raw.Contains(r.Actual) {
			in++
		}
		meanWidth += 2 * r.Raw.Spread
	}
	n := float64(len(recs))
	return float64(in) / n, meanWidth / n
}

func calCapture(recs []runRecord) (capture, meanWidth float64) {
	in := 0
	for _, r := range recs {
		if r.Pred.Contains(r.Actual) {
			in++
		}
		meanWidth += 2 * r.Pred.Spread
	}
	n := float64(len(recs))
	return float64(in) / n, meanWidth / n
}

// runCalibReplay replays each scenario once with the observe loop closed.
// Every run records both the raw and the calibrated interval, so a single
// pass yields the on/off comparison over identical load sample paths.
func runCalibReplay(seed int64) (*Result, error) {
	const (
		n    = 300
		runs = 40
	)
	tb := NewTable("scenario", "raw capture", "cal capture", "width ratio", "final scale", "drifts")
	metrics := map[string]float64{}
	var b strings.Builder
	var drifts []string
	for _, sc := range calibScenarios() {
		diag := &pipelineDiag{}
		recs, err := runProductionSeries(productionConfig{
			spec:         sc.spec(seed),
			n:            n,
			iters:        8,
			runs:         runs,
			gap:          20,
			partStrategy: sched.MeanBalanced,
			maxStrategy:  stochastic.LargestMean,
			iterationRel: structural.Related,
			observe:      true,
			diag:         diag,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.name, err)
		}
		rawCap, rawW := rawCapture(recs)
		calCap, calW := calCapture(recs)
		ratio := calW / rawW
		snap := diag.Calibration
		tb.AddRowf(sc.name, pct(rawCap), pct(calCap), fmt.Sprintf("%.2fx", ratio),
			fmt.Sprintf("%.2f", snap.Scale), len(snap.Drifts))
		metrics["capture_raw_"+sc.key] = rawCap
		metrics["capture_cal_"+sc.key] = calCap
		metrics["width_ratio_"+sc.key] = ratio
		metrics["scale_"+sc.key] = snap.Scale
		metrics["drifts_"+sc.key] = float64(len(snap.Drifts))
		if len(snap.Drifts) > 0 {
			metrics["first_drift_t_"+sc.key] = snap.Drifts[0].Time
		}
		for _, d := range snap.Drifts {
			drifts = append(drifts, fmt.Sprintf("  %-34s t=%.0f run=%d reason=%s stat=%.1f",
				sc.name, d.Time, d.Seq, d.Reason, d.Stat))
		}
	}

	fmt.Fprintf(&b, "%dx%d SOR, %d observed executions per scenario; 95%% capture target.\n", n, n, runs)
	b.WriteString("Raw and calibrated intervals are scored on the same sample path: the\nobserve loop rescales half-widths only, never the predicted mean.\n\n")
	b.WriteString(tb.String())
	if len(drifts) > 0 {
		fmt.Fprintf(&b, "\nDrift events (regime change injected at t=%.0f in the switch scenario):\n", switchAt)
		b.WriteString(strings.Join(drifts, "\n"))
		b.WriteString("\n")
	}
	b.WriteString("\nOn the steady Platform 1 replay the detector stays quiet and the\nconformal multiplier barely moves. On the bursty Platform 2 replay the\nraw two-sigma intervals under-cover; the calibrator widens them toward the\ntarget without paying more than ~1.5x the width. The light-to-bursty\nswitch trips the detector, which resets the calibration state so the new\nregime is learned from scratch.\n")
	return &Result{ID: "calib-replay", Title: "Online interval calibration", Text: b.String(), Metrics: metrics}, nil
}
