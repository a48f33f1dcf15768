package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"prodpred/internal/dist"
	"prodpred/internal/load"
	"prodpred/internal/modal"
	"prodpred/internal/stats"
	"prodpred/internal/stochastic"
)

func init() {
	register(Experiment{
		ID:    "fig1-2",
		Title: "PDF and CDF of dedicated sort-benchmark runtimes with fitted normal",
		Paper: "Figures 1-2: in-core benchmark runtimes on a dedicated workstation are close to normal (mean ~11 s).",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig3-4",
		Title: "Long-tailed ethernet bandwidth vs normal summary",
		Paper: "Figures 3-4 and §2.1.1: bandwidth mean 5.25 Mbit/s; a 2-sigma normal summary covers ~91% of samples, not the nominal 95%.",
		Run:   runFig34,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Tri-modal CPU load histogram (Platform 1)",
		Paper: "Figure 5: production load with modes near 0.33, 0.49, and 0.94.",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Single-mode load trace (Platform 1 center mode)",
		Paper: "Figure 8: load staying within the center mode, mean 0.48 (stochastic value 0.48 ± 0.05).",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig10-11",
		Title: "Four-modal bursty load histogram and trace (Platform 2)",
		Paper: "Figures 10-11: 4-modal distribution, bursty in nature.",
		Run:   runFig1011,
	})
	register(Experiment{
		ID:    "longtail",
		Title: "Normal-for-long-tailed coverage tradeoff",
		Paper: "§2.1.1: representing long-tailed data as normal trades tail coverage for tractability.",
		Run:   runLongtail,
	})
	register(Experiment{
		ID:    "table2",
		Title: "Arithmetic combination rules for stochastic values",
		Paper: "Table 2: point/related/unrelated addition and multiplication, cross-checked by Monte Carlo.",
		Run:   runTable2,
	})
	register(Experiment{
		ID:    "maxops",
		Title: "Group Max strategies over stochastic values",
		Paper: "§2.3.3: Max of A=4±0.5, B=3±2, C=3±1 depends on the resolution strategy.",
		Run:   runMaxOps,
	})
}

// runFig12 reproduces Figures 1-2. The paper benchmarks a sorting code on
// a dedicated workstation; run-to-run variation comes from residual system
// activity. We model each run as fixed work at normal-varying effective
// speed and show the runtimes are well summarized by a fitted normal.
func runFig12(seed int64) (*Result, error) {
	rng := rand.New(rand.NewSource(seed))
	speed, err := dist.NewTruncatedNormal(1.0, 0.055, 0.5, 1.5)
	if err != nil {
		return nil, err
	}
	const baseRuntime = 11.0 // seconds at nominal speed
	runs := make([]float64, 200)
	for i := range runs {
		runs[i] = baseRuntime / speed.Sample(rng)
	}
	fit, err := dist.FitNormal(runs)
	if err != nil {
		return nil, err
	}
	hist, err := stats.NewHistogramAuto(runs)
	if err != nil {
		return nil, err
	}
	ks, err := stats.KolmogorovSmirnov(runs, fit.CDF)
	if err != nil {
		return nil, err
	}
	ecdf, err := stats.NewECDF(runs)
	if err != nil {
		return nil, err
	}
	sv := stochastic.FromNormal(fit)

	var b strings.Builder
	fmt.Fprintf(&b, "Sort benchmark, %d dedicated runs. Fitted normal: %s\n", len(runs), fit)
	fmt.Fprintf(&b, "Stochastic value: %s; K-S D=%.3f p=%.3f\n\n", sv, ks.Statistic, ks.PValue)
	b.WriteString("PDF (runtime histogram):\n")
	b.WriteString(hist.Render(40))
	b.WriteString("\nCDF:\n")
	xs, fs := ecdf.Curve(24)
	tb := NewTable("runtime", "empirical F", "normal F")
	for i := range xs {
		tb.AddRowf(xs[i], fs[i], fit.CDF(xs[i]))
	}
	b.WriteString(tb.String())

	return &Result{
		ID: "fig1-2", Title: "Dedicated benchmark runtimes", Text: b.String(),
		Metrics: map[string]float64{
			"mean":       fit.Mu,
			"sigma":      fit.Sigma,
			"ks_p":       ks.PValue,
			"coverage2s": stats.CoverageSigma(runs, 2),
		},
	}, nil
}

// runFig34 reproduces Figures 3-4 and the §2.1.1 coverage analysis.
func runFig34(seed int64) (*Result, error) {
	proc, err := load.EthernetContention(seed)
	if err != nil {
		return nil, err
	}
	s, err := load.Record(proc, 0, 20000, 1)
	if err != nil {
		return nil, err
	}
	// Convert availability fraction to Mbit/s on the 10 Mbit ethernet.
	mbit := make([]float64, s.Len())
	for i, v := range s.Values() {
		mbit[i] = v * 10
	}
	fit, err := dist.FitNormal(mbit)
	if err != nil {
		return nil, err
	}
	hist, err := stats.NewHistogram(mbit, 2, 7, 25)
	if err != nil {
		return nil, err
	}
	sv := stochastic.FromNormal(fit)
	cov := stats.Coverage(mbit, sv.Lo(), sv.Hi())
	jb, err := stats.JarqueBera(mbit)
	if err != nil {
		return nil, err
	}
	med, _ := stats.Median(mbit)

	var b strings.Builder
	fmt.Fprintf(&b, "Ethernet bandwidth, %d samples. Mean %.2f Mbit/s, median %.2f, skewness %.2f\n",
		len(mbit), fit.Mu, med, stats.Skewness(mbit))
	fmt.Fprintf(&b, "Normal summary %s covers %s of samples (nominal 95%%)\n", sv, pct(cov))
	fmt.Fprintf(&b, "Jarque-Bera rejects normality: stat=%.1f p=%.4f\n\n", jb.Statistic, jb.PValue)
	b.WriteString("Bandwidth histogram (long left tail):\n")
	b.WriteString(hist.Render(40))

	return &Result{
		ID: "fig3-4", Title: "Long-tailed bandwidth", Text: b.String(),
		Metrics: map[string]float64{
			"mean_mbit":  fit.Mu,
			"coverage2s": cov,
			"skewness":   stats.Skewness(mbit),
			"jb_p":       jb.PValue,
		},
	}, nil
}

// runFig5 reproduces Figure 5: the tri-modal Platform 1 load histogram,
// recovered by mixture fitting.
func runFig5(seed int64) (*Result, error) {
	proc, err := load.Platform1TriModal(seed)
	if err != nil {
		return nil, err
	}
	s, err := load.Record(proc, 0, 30000, 1)
	if err != nil {
		return nil, err
	}
	xs := s.Values()
	hist, err := stats.NewHistogram(xs, 0, 1, 40)
	if err != nil {
		return nil, err
	}
	mm, err := modal.FitBIC(xs, 5)
	if err != nil {
		return nil, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Platform 1 CPU load, %d samples. BIC selects %d modes:\n", len(xs), mm.K())
	tb := NewTable("mode", "mean", "sigma", "weight")
	for i, m := range mm.Modes {
		tb.AddRowf(i+1, m.Mean, m.Sigma, m.Weight)
	}
	b.WriteString(tb.String())
	b.WriteString("\nLoad histogram:\n")
	b.WriteString(hist.Render(40))

	metrics := map[string]float64{"modes": float64(mm.K())}
	for i, m := range mm.Modes {
		metrics[fmt.Sprintf("mode%d_mean", i+1)] = m.Mean
	}
	return &Result{ID: "fig5", Title: "Tri-modal load", Text: b.String(), Metrics: metrics}, nil
}

// runFig8 reproduces Figure 8: a load trace that stays in the center mode.
func runFig8(seed int64) (*Result, error) {
	proc, err := load.Platform1CenterMode(seed)
	if err != nil {
		return nil, err
	}
	s, err := load.Record(proc, 0, 1500, 5)
	if err != nil {
		return nil, err
	}
	xs := s.Values()
	sv, err := stochastic.FromSample(xs)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Center-mode load trace (0-1500 s). Stochastic value: %s\n", sv)
	fmt.Fprintf(&b, "(paper: 0.48 ± 0.05)\n\n")
	b.WriteString(RenderSeries(s.Times(), xs, 64, 12))
	return &Result{
		ID: "fig8", Title: "Single-mode load trace", Text: b.String(),
		Metrics: map[string]float64{"mean": sv.Mean, "spread": sv.Spread},
	}, nil
}

// runFig1011 reproduces Figures 10-11: the bursty 4-modal Platform 2 load.
func runFig1011(seed int64) (*Result, error) {
	proc, err := load.Platform2FourModeBursty(seed)
	if err != nil {
		return nil, err
	}
	s, err := load.Record(proc, 0, 30000, 1)
	if err != nil {
		return nil, err
	}
	xs := s.Values()
	hist, err := stats.NewHistogram(xs, 0, 1, 40)
	if err != nil {
		return nil, err
	}
	mm, err := modal.FitBIC(xs, 6)
	if err != nil {
		return nil, err
	}
	burst, err := modal.AnalyzeBurstiness(mm, xs)
	if err != nil {
		return nil, err
	}
	trace, err := load.Record(proc, 0, 1500, 5)
	if err != nil {
		return nil, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Platform 2 CPU load: %d fitted modes, transition rate %.3f/sample, mean dwell %.1f samples\n\n",
		mm.K(), burst.TransitionRate, burst.MeanDwell)
	b.WriteString("Histogram:\n")
	b.WriteString(hist.Render(40))
	b.WriteString("\nBursty trace (0-1500 s):\n")
	b.WriteString(RenderSeries(trace.Times(), trace.Values(), 64, 12))
	return &Result{
		ID: "fig10-11", Title: "Bursty 4-modal load", Text: b.String(),
		Metrics: map[string]float64{
			"modes":           float64(mm.K()),
			"transition_rate": burst.TransitionRate,
		},
	}, nil
}

// runLongtail quantifies the §2.1.1 tradeoff across k-sigma bands. The two
// coverage sweeps draw their samples on the parallel MC engine, one
// deterministic stream per distribution.
func runLongtail(seed int64) (*Result, error) {
	ln, err := dist.LogNormalFromMoments(5.25, 0.8)
	if err != nil {
		return nil, err
	}
	normal := dist.Normal{Mu: 5.25, Sigma: 0.8}
	xsLong, err := stochastic.MC{Seed: seed}.Samples(20000, ln.Sample)
	if err != nil {
		return nil, err
	}
	xsNorm, err := stochastic.MC{Seed: seed + 1}.Samples(20000, normal.Sample)
	if err != nil {
		return nil, err
	}

	tb := NewTable("k-sigma", "normal data", "long-tailed data", "nominal")
	nominal := map[float64]float64{1: 0.6827, 2: 0.9545, 3: 0.9973}
	metrics := map[string]float64{}
	for _, k := range []float64{1, 2, 3} {
		cn := stats.CoverageSigma(xsNorm, k)
		cl := stats.CoverageSigma(xsLong, k)
		tb.AddRowf(k, pct(cn), pct(cl), pct(nominal[k]))
		metrics[fmt.Sprintf("norm_cov%g", k)] = cn
		metrics[fmt.Sprintf("long_cov%g", k)] = cl
	}
	var b strings.Builder
	b.WriteString("Coverage of mean ± k sigma intervals (20000 samples each):\n")
	b.WriteString(tb.String())
	b.WriteString("\nLong-tailed data loses upper-tail coverage at 2 sigma; the normal\nsummary remains acceptable when the consumer tolerates ~5-10% misses.\n")
	return &Result{ID: "longtail", Title: "Long-tail coverage", Text: b.String(), Metrics: metrics}, nil
}

// runTable2 renders the Table 2 rules with worked examples and Monte Carlo
// cross-checks. The spread-error checks sample on the parallel MC engine,
// one independent seed per cross-check.
func runTable2(seed int64) (*Result, error) {
	a := stochastic.New(8, 2)
	c := stochastic.New(5, 1.5)
	p := 3.0

	mc := func(salt int64, f func(*rand.Rand) float64) stochastic.Value {
		v, err := stochastic.MC{Seed: seed + salt}.Moments(60000, f)
		if err != nil {
			panic(err) // cannot happen: sample count is positive
		}
		return v
	}
	addMC := mc(0, func(rng *rand.Rand) float64 { return a.Sample(rng) + c.Sample(rng) })
	mulMC := mc(1, func(rng *rand.Rand) float64 { return a.Sample(rng) * c.Sample(rng) })

	tb := NewTable("operation", "rule result", "Monte Carlo (indep.)")
	tb.AddRowf("(8±2) + 3 [point]", a.AddPoint(p).String(), "")
	tb.AddRowf("3 * (8±2) [point]", a.MulPoint(p).String(), "")
	tb.AddRowf("(8±2)+(5±1.5) related", a.AddRelated(c).String(), "")
	tb.AddRowf("(8±2)+(5±1.5) unrelated", a.AddUnrelated(c).String(), addMC.String())
	tb.AddRowf("(8±2)*(5±1.5) related", a.MulRelated(c).String(), "")
	tb.AddRowf("(8±2)*(5±1.5) unrelated", a.MulUnrelated(c).String(), mulMC.String())

	var b strings.Builder
	b.WriteString("Table 2 combination rules (spread = two standard deviations):\n")
	b.WriteString(tb.String())
	b.WriteString("\nThe unrelated rules match independent sampling; the related rules\nare conservative upper bounds (exact for perfectly correlated inputs).\n")

	au := a.AddUnrelated(c)
	mu := a.MulUnrelated(c)
	return &Result{
		ID: "table2", Title: "Stochastic arithmetic", Text: b.String(),
		Metrics: map[string]float64{
			"add_mc_mean_err":   relDiff(addMC.Mean, au.Mean),
			"add_mc_spread_err": relDiff(addMC.Spread, au.Spread),
			"mul_mc_mean_err":   relDiff(mulMC.Mean, mu.Mean),
			"mul_mc_spread_err": relDiff(mulMC.Spread, mu.Spread),
		},
	}, nil
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := (a - b) / b
	if d < 0 {
		return -d
	}
	return d
}

// runMaxOps reproduces the §2.3.3 Max example, with the ground-truth Max
// distribution sampled on the parallel MC engine.
func runMaxOps(seed int64) (*Result, error) {
	A := stochastic.New(4, 0.5)
	B := stochastic.New(3, 2)
	C := stochastic.New(3, 1)

	largestMean, err := stochastic.Max(stochastic.LargestMean, A, B, C)
	if err != nil {
		return nil, err
	}
	largestMag, err := stochastic.Max(stochastic.LargestMagnitude, A, B, C)
	if err != nil {
		return nil, err
	}
	prob, err := stochastic.Max(stochastic.Probabilistic, A, B, C)
	if err != nil {
		return nil, err
	}
	mcTruth, err := stochastic.MC{Seed: seed}.Moments(200000, func(rng *rand.Rand) float64 {
		m := A.Sample(rng)
		if v := B.Sample(rng); v > m {
			m = v
		}
		if v := C.Sample(rng); v > m {
			m = v
		}
		return m
	})
	if err != nil {
		return nil, err
	}

	tb := NewTable("strategy", "Max{4±0.5, 3±2, 3±1}")
	tb.AddRowf("largest mean", largestMean.String())
	tb.AddRowf("largest magnitude", largestMag.String())
	tb.AddRowf("probabilistic (Clark)", prob.String())
	tb.AddRowf("Monte Carlo truth", mcTruth.String())
	var b strings.Builder
	b.WriteString("Group Max of stochastic values is situation-dependent (§2.3.3):\n")
	b.WriteString(tb.String())
	return &Result{
		ID: "maxops", Title: "Max strategies", Text: b.String(),
		Metrics: map[string]float64{
			"mean_strategy":  largestMean.Mean,
			"mag_strategy":   largestMag.Hi(),
			"clark_mean":     prob.Mean,
			"mc_mean":        mcTruth.Mean,
			"clark_mean_err": relDiff(prob.Mean, mcTruth.Mean),
		},
	}, nil
}
