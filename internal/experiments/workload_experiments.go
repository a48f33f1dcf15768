package experiments

import (
	"fmt"
	"strings"

	"prodpred/internal/sched"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
	"prodpred/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "workload-scenarios",
		Title: "Per-scenario prediction scorecards across the workload library",
		Paper: "§4's evaluation fixes the load models to the two measured platforms. The workload library replays the production regimes the paper describes in prose — diurnal cycles, flash crowds, heavy-tailed batch contention, cohort mixes, regime cascades — as declarative scenarios, and this sweep scores both served interval constructions (calibrated normal and calibrated quantile grid) on every one of them: per-scenario capture, width, and Winkler interval score at 95%.",
		Run:   runWorkloadScenarios,
	})
}

// Scenario-sweep shape: a short-gap production series per scenario, small
// enough that the full library sweeps in test time, long enough that the
// post-burn-in window sees each scenario's regime structure. Each scenario
// is run at scenarioSeeds independent seeds and the post-burn-in records
// pooled, so no scorecard hinges on one sample path.
const (
	scenarioN     = 120
	scenarioRuns  = 40
	scenarioSeeds = 2
)

// scenarioSeries replays one observed production series on burstySpec's
// platform with the named library scenario in place of the bursty load
// (entry i on machine i, same seeds).
func scenarioSeries(name string, seed int64) ([]runRecord, error) {
	spec := burstySpec(seed)
	for i := range spec.CPU {
		spec.CPU[i] = workload.LoadSpec{Kind: "scenario", Scenario: name, Machine: i, Seed: spec.CPU[i].Seed}
	}
	return runProductionSeries(productionConfig{
		spec:         spec,
		n:            scenarioN,
		iters:        4,
		runs:         scenarioRuns,
		gap:          5,
		partStrategy: sched.MeanBalanced,
		maxStrategy:  stochastic.LargestMean,
		iterationRel: structural.Related,
		observe:      true,
	})
}

// runWorkloadScenarios sweeps every library scenario and emits one
// scorecard row per scenario: capture fraction, mean interval width, and
// Winkler score at the 95% level for the calibrated-normal interval
// (point path) and the calibrated quantile grid (distribution path),
// pooled over scenarioSeeds seeds after the calibration burn-in.
func runWorkloadScenarios(seed int64) (*Result, error) {
	names := workload.Names()
	tb := NewTable("scenario", "capture pt/dist", "width pt/dist", "Winkler@95 pt/dist")
	metrics := map[string]float64{"scenarios": float64(len(names))}
	for _, name := range names {
		var scored []runRecord
		for s := 0; s < scenarioSeeds; s++ {
			recs, err := scenarioSeries(name, seed+int64(s)*101)
			if err != nil {
				return nil, err
			}
			if len(recs) <= distBurnIn {
				return nil, fmt.Errorf("workload-scenarios: %s: %d records, need more than the %d-run burn-in", name, len(recs), distBurnIn)
			}
			scored = append(scored, recs[distBurnIn:]...)
		}
		capPt, widthPt := calCapture(scored)
		capDist, widthDist := quantileCapture(scored)
		w95Pt := intervalScore(0.05, func(r runRecord) (float64, float64) { return r.Pred.Interval() }, scored)
		w95Dist := intervalScore(0.05, func(r runRecord) (float64, float64) { return r.QLo, r.QHi }, scored)
		tb.AddRowf(name,
			fmt.Sprintf("%s / %s", pct(capPt), pct(capDist)),
			fmt.Sprintf("%.3f / %.3f", widthPt, widthDist),
			fmt.Sprintf("%.3f / %.3f", w95Pt, w95Dist))
		metrics[name+"_capture_point"] = capPt
		metrics[name+"_capture_dist"] = capDist
		metrics[name+"_width_point"] = widthPt
		metrics[name+"_width_dist"] = widthDist
		metrics[name+"_winkler95_point"] = w95Pt
		metrics[name+"_winkler95_dist"] = w95Dist
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d SOR on Platform 2 machines under each workload-library scenario;\n%d observed runs x %d seeds per scenario, first %d runs of each series\nexcluded as calibration burn-in. \"pt\" is the calibrated-normal\nmean±spread interval, \"dist\" the calibrated quantile grid's central 95%%\n(Winkler score: width + 40x miss distance; lower is better).\n\n",
		scenarioN, scenarioN, scenarioRuns, scenarioSeeds, distBurnIn)
	b.WriteString(tb.String())
	b.WriteString("\nEvery scenario is generated, not measured, so the sweep is exactly\nreproducible from (scenario spec, seed) — the same contract that makes\nrecorded traces replay bit-identically through the serving stack.\n")
	return &Result{ID: "workload-scenarios", Title: "Workload-library scenario scorecards", Text: b.String(), Metrics: metrics}, nil
}
