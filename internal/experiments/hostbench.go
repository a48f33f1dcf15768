package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"prodpred/internal/dist"
	"prodpred/internal/stats"
	"prodpred/internal/stochastic"
)

func init() {
	register(Experiment{
		ID:    "host-bench",
		Title: "Host validation: real in-core sort benchmark runtimes (Figures 1-2 on this machine)",
		Paper: "Figure 1 benchmarks a sorting code on a dedicated workstation; here the same protocol runs for real: repeated sorts, fitted normal, K-S check.",
		Run:   runHostBench,
	})
}

// runHostBench executes the paper's Figure 1 protocol on real hardware:
// time an in-core sorting benchmark repeatedly, fit a normal distribution
// to the runtimes, and report how well the stochastic summary describes
// them. Results depend on the build machine; the metrics are shapes.
func runHostBench(seed int64) (*Result, error) {
	const (
		elems = 200_000
		runs  = 120
	)
	rng := rand.New(rand.NewSource(seed))
	base := make([]float64, elems)
	for i := range base {
		base[i] = rng.Float64()
	}
	buf := make([]float64, elems)
	times := make([]float64, runs)
	for r := range times {
		copy(buf, base)
		start := time.Now()
		sort.Float64s(buf)
		times[r] = time.Since(start).Seconds() * 1e3 // milliseconds
	}
	// Drop warmup outliers the way benchmarkers do: first 10% of runs.
	times = times[runs/10:]

	fit, err := dist.FitNormal(times)
	if err != nil {
		return nil, err
	}
	sv := stochastic.FromNormal(fit)
	ks, err := stats.KolmogorovSmirnov(times, fit.CDF)
	if err != nil {
		return nil, err
	}
	cov := stats.Coverage(times, sv.Lo(), sv.Hi())
	hist, err := stats.NewHistogramAuto(times)
	if err != nil {
		return nil, err
	}
	med, _ := stats.Median(times)

	var b strings.Builder
	fmt.Fprintf(&b, "Real sort benchmark: %d elements, %d timed runs on this machine\n\n", elems, len(times))
	fmt.Fprintf(&b, "Runtimes (ms): fitted normal %s, median %.3f\n", fit, med)
	fmt.Fprintf(&b, "Stochastic value %s covers %s of runs; K-S D=%.3f p=%.3f\n\n",
		sv, pct(cov), ks.Statistic, ks.PValue)
	b.WriteString(hist.Render(40))
	b.WriteString("\nDedicated-machine benchmark runtimes cluster tightly; occasional\nscheduler preemptions give a small right tail — the shape behind the\npaper's choice of a normal summary for dedicated measurements.\n")
	return &Result{
		ID: "host-bench", Title: "Host sort benchmark", Text: b.String(),
		Metrics: map[string]float64{
			"mean_ms":    fit.Mu,
			"rel_spread": sv.RelativeSpread(),
			"coverage2s": cov,
			"ks_p":       ks.PValue,
		},
	}, nil
}
