package experiments

import (
	"fmt"
	"math"
	"strings"

	"prodpred/internal/cluster"
	"prodpred/internal/load"
	"prodpred/internal/sched"
	"prodpred/internal/simenv"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Strip decomposition for Red-Black SOR",
		Paper: "Figure 6: strip decomposition of the NxN grid across processors.",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Program skew under loose synchronization",
		Paper: "Figure 7: communication delays skew iterations by at most P.",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Platform 1: stochastic interval vs actual runtimes across problem sizes",
		Paper: "Figure 9: all actuals inside the stochastic interval; max mean-point discrepancy 9.7%, interval discrepancy 0%.",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig12-13",
		Title: "Platform 2 bursty: 1600x1600 executions and load",
		Paper: "Figures 12-13: ~80% of actuals captured, max interval error ~14%, vs point-value max error 38.6%.",
		Run:   platform2Runner(1600, "fig12-13"),
	})
	register(Experiment{
		ID:    "fig14-15",
		Title: "Platform 2 bursty: 1000x1000 executions and load",
		Paper: "Figures 14-15: same behaviour at a small problem size.",
		Run:   platform2Runner(1000, "fig14-15"),
	})
	register(Experiment{
		ID:    "fig16-17",
		Title: "Platform 2 bursty: 2000x2000 executions and load",
		Paper: "Figures 16-17: same behaviour at a large problem size.",
		Run:   platform2Runner(2000, "fig16-17"),
	})
	register(Experiment{
		ID:    "dedicated",
		Title: "Structural model accuracy on a dedicated system",
		Paper: "§2.2.1: dedicated predictions within 2% of actual execution time.",
		Run:   runDedicated,
	})
}

func runFig6(seed int64) (*Result, error) {
	_ = seed
	plat := cluster.Platform2()
	weights := make([]float64, plat.Size())
	for i := range weights {
		weights[i] = plat.Machine(i).ElemRate
	}
	part, err := sor.NewWeightedPartition(1600, weights)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("Strip decomposition of a 1600x1600 grid across Platform 2,\nweighted by dedicated machine capacity:\n\n")
	b.WriteString(part.Render())
	return &Result{
		ID: "fig6", Title: "Strip decomposition", Text: b.String(),
		Metrics: map[string]float64{"strips": float64(part.P())},
	}, nil
}

func runFig7(seed int64) (*Result, error) {
	// Load one interior machine; watch the delay propagate to its
	// neighbours without exceeding the loose-synchronization bound.
	plat := cluster.Platform1()
	slow, err := load.NewSingleMode(0.3, 0.05, 0.9, 1, seed)
	if err != nil {
		return nil, err
	}
	ded := load.Dedicated()
	env, err := simenv.New(plat, []load.Process{ded, slow, ded, ded}, ded)
	if err != nil {
		return nil, err
	}
	n := 402
	part, err := sor.NewEqualPartition(n, plat.Size())
	if err != nil {
		return nil, err
	}
	backend, err := sor.NewSimBackend(env, part, sor.IdentityMapping(plat.Size()))
	if err != nil {
		return nil, err
	}
	iters := 15
	res, err := backend.Run(iters, 0)
	if err != nil {
		return nil, err
	}
	perIter := res.ExecTime / float64(iters)
	bound := float64(plat.Size()) * perIter
	var b strings.Builder
	fmt.Fprintf(&b, "Loaded strip P2 delays its neighbours through ghost exchanges.\n")
	fmt.Fprintf(&b, "Max skew: %.3f s; per-iteration time %.3f s; P*iteration bound %.3f s\n\n",
		res.MaxSkew, perIter, bound)
	xs := make([]float64, len(res.IterationEnd))
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	b.WriteString("Iteration completion times:\n")
	b.WriteString(RenderSeries(xs, res.IterationEnd, 60, 10))
	return &Result{
		ID: "fig7", Title: "Program skew", Text: b.String(),
		Metrics: map[string]float64{
			"max_skew":   res.MaxSkew,
			"skew_bound": bound,
		},
	}, nil
}

// runFig9 reproduces the Platform 1 experiment (§3.1): load on the slowest
// machines stays in the center mode (0.48 ± 0.05); the stochastic interval
// should capture the actual runtime at every problem size.
func runFig9(seed int64) (*Result, error) {
	metrics := map[string]float64{}
	tb := NewTable("N", "predicted", "interval", "actual", "inside", "mean-err")
	capturedAll := true
	maxMeanErr := 0.0
	maxIntErr := 0.0

	var xsN, actuals, los, his, means []float64
	for i, n := range []int{1000, 1200, 1400, 1600, 1800, 2000} {
		// Fresh load processes per size, as each paper point is its own
		// set of executions, on a dedicated link: only the CPU loads vary.
		spec := simulatedSpec(1, seed+int64(i)*101+1)
		spec.Net = nil
		spec.Warmup = 900
		recs, err := runProductionSeries(productionConfig{
			spec:         spec,
			n:            n,
			iters:        10,
			runs:         1,
			partStrategy: sched.MeanBalanced,
			maxStrategy:  stochastic.LargestMean,
		})
		if err != nil {
			return nil, err
		}
		r := recs[0]
		inside := "yes"
		if !r.Pred.Contains(r.Actual) {
			inside = "NO"
			capturedAll = false
			if e := r.Pred.RelativeErrorOutside(r.Actual); e > maxIntErr {
				maxIntErr = e
			}
		}
		meanErr := math.Abs(r.Actual-r.Pred.Mean) / r.Actual
		if meanErr > maxMeanErr {
			maxMeanErr = meanErr
		}
		lo, hi := r.Pred.Interval()
		tb.AddRowf(n, r.Pred.String(), fmt.Sprintf("[%.2f,%.2f]", lo, hi),
			fmt.Sprintf("%.2f", r.Actual), inside, pct(meanErr))
		xsN = append(xsN, float64(n))
		actuals = append(actuals, r.Actual)
		los = append(los, lo)
		his = append(his, hi)
		means = append(means, r.Pred.Mean)
	}
	var b strings.Builder
	b.WriteString("Platform 1, center-mode load on the Sparc-2s (paper: 0.48 ± 0.05):\n")
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nAll inside interval: %v; max mean-point error %s (paper: 9.7%%); max interval error %s (paper: 0%%)\n",
		capturedAll, pct(maxMeanErr), pct(maxIntErr))
	b.WriteString("\n")
	b.WriteString(RenderSeriesMulti(xsN, [][]float64{los, his, means, actuals},
		[]byte{'-', '-', 'm', 'A'}, 60, 12))
	metrics["captured_all"] = boolTo01(capturedAll)
	metrics["max_mean_err"] = maxMeanErr
	metrics["max_interval_err"] = maxIntErr
	return &Result{ID: "fig9", Title: "Platform 1 predictions", Text: b.String(), Metrics: metrics}, nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// platform2Runner builds the bursty Platform 2 experiment at one problem
// size (Figures 12-17).
func platform2Runner(n int, id string) func(int64) (*Result, error) {
	return func(seed int64) (*Result, error) {
		recs, err := runPlatform2Series(n, seed, 20, stochastic.LargestMean, structural.Related)
		if err != nil {
			return nil, err
		}
		m := summarizeRuns(recs)
		var b strings.Builder
		fmt.Fprintf(&b, "Platform 2, bursty 4-modal load, %dx%d, %d executions:\n\n", n, n, len(recs))
		b.WriteString(renderRunSeries(recs))
		fmt.Fprintf(&b, "\nCaptured %s of runs (paper: ~80%%); max interval error %s (paper: ~14%%)\n",
			pct(m.CaptureFrac), pct(m.MaxIntErr))
		fmt.Fprintf(&b, "Point-value (mean) max error %s (paper: 38.6%%), average %s\n",
			pct(m.MaxMeanErr), pct(m.MeanMeanErr))
		b.WriteString("\nLoad on the most volatile machine at run starts:\n")
		b.WriteString(renderLoadTrace(recs, 0))
		return &Result{
			ID: id, Title: fmt.Sprintf("Platform 2 %dx%d", n, n), Text: b.String(),
			Metrics: map[string]float64{
				"capture_frac":     m.CaptureFrac,
				"max_interval_err": m.MaxIntErr,
				"max_mean_err":     m.MaxMeanErr,
				"mean_mean_err":    m.MeanMeanErr,
			},
		}, nil
	}
}

// runPlatform2Series is the shared bursty pipeline, also used by the
// ablations with alternative prediction configurations.
func runPlatform2Series(n int, seed int64, runs int, maxStrat stochastic.MaxStrategy,
	iterRel structural.Relation) ([]runRecord, error) {
	spec := simulatedSpec(2, seed)
	spec.Warmup = 1200
	return runProductionSeries(productionConfig{
		spec:         spec,
		n:            n,
		iters:        10,
		runs:         runs,
		gap:          30,
		partStrategy: sched.MeanBalanced,
		maxStrategy:  maxStrat,
		iterationRel: iterRel,
	})
}

// runDedicated validates the §2.2.1 dedicated-accuracy claim across sizes.
func runDedicated(seed int64) (*Result, error) {
	_ = seed
	plat := cluster.Platform1()
	env, err := simenv.NewDedicated(plat)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, plat.Size())
	machines := make([]cluster.Machine, plat.Size())
	for i := range weights {
		machines[i] = plat.Machine(i)
		weights[i] = machines[i].ElemRate
	}
	link, err := plat.Link(0, 1)
	if err != nil {
		return nil, err
	}
	tb := NewTable("N", "predicted (s)", "actual (s)", "error")
	worst := 0.0
	for _, n := range []int{400, 800, 1200, 1600} {
		part, err := sor.NewWeightedPartition(n, weights)
		if err != nil {
			return nil, err
		}
		cfg := &structural.SORConfig{
			N: n, Iterations: 10, Partition: part, Machines: machines,
			MachineIdx: sor.IdentityMapping(plat.Size()), Link: link,
			MaxStrategy: stochastic.LargestMean,
		}
		pred, err := cfg.Predict(cfg.DedicatedParams())
		if err != nil {
			return nil, err
		}
		backend, err := sor.NewSimBackend(env, part, cfg.MachineIdx)
		if err != nil {
			return nil, err
		}
		res, err := backend.Run(cfg.Iterations, 0)
		if err != nil {
			return nil, err
		}
		e := math.Abs(pred.Mean-res.ExecTime) / res.ExecTime
		if e > worst {
			worst = e
		}
		tb.AddRowf(n, fmt.Sprintf("%.4f", pred.Mean), fmt.Sprintf("%.4f", res.ExecTime), pct(e))
	}
	var b strings.Builder
	b.WriteString("Dedicated Platform 1, capacity-weighted strips:\n")
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nWorst error %s (paper: within 2%%)\n", pct(worst))
	return &Result{
		ID: "dedicated", Title: "Dedicated accuracy", Text: b.String(),
		Metrics: map[string]float64{"worst_err": worst},
	}, nil
}
