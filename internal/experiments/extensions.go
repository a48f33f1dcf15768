package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"prodpred/internal/cluster"
	"prodpred/internal/dist"
	"prodpred/internal/sched"
	"prodpred/internal/simenv"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
)

func init() {
	register(Experiment{
		ID:    "ablation-empirical",
		Title: "Ablation: closed-form Table 2 rules vs full empirical propagation",
		Paper: "§2.1: 'general distributions are awkward to work with' — quantified: accuracy given up and speed gained by the normal assumption.",
		Run:   runAblationEmpirical,
	})
	register(Experiment{
		ID:    "ablation-partition",
		Title: "Ablation: capacity-proportional vs time-balanced decomposition",
		Paper: "Footnote 2 operationalized: balancing predicted completion times (compute + comm) beats balancing raw capacity on comm-heavy problems.",
		Run:   runAblationPartition,
	})
}

// runAblationEmpirical propagates the SOR computation component both ways:
// the paper's closed-form normal rules and the ground-truth empirical
// (resampling) combination, for a normal load and a long-tailed load.
func runAblationEmpirical(seed int64) (*Result, error) {
	rng := rand.New(rand.NewSource(seed))
	const benchSecs = 100.0 // dedicated compute seconds for the strip

	type scenario struct {
		name  string
		draws []float64
	}
	normal, err := dist.NewTruncatedNormal(0.48, 0.025, 0.01, 1)
	if err != nil {
		return nil, err
	}
	longtail, err := dist.LogNormalFromMoments(0.5, 0.15)
	if err != nil {
		return nil, err
	}
	clamp := func(xs []float64) []float64 {
		for i, x := range xs {
			if x > 1 {
				xs[i] = 1
			}
			if x < 0.01 {
				xs[i] = 0.01
			}
		}
		return xs
	}
	scenarios := []scenario{
		{"normal load (0.48±0.05)", dist.SampleN(normal, rng, 4000)},
		{"long-tailed load", clamp(dist.SampleN(longtail, rng, 4000))},
	}

	var b strings.Builder
	metrics := map[string]float64{}
	tb := NewTable("load class", "rule prediction", "empirical prediction", "true 95% interval", "rule covers")
	for i, sc := range scenarios {
		emp, err := stochastic.NewEmpirical(sc.draws)
		if err != nil {
			return nil, err
		}
		// Closed-form: summarize then divide.
		ruleVal := stochastic.Point(benchSecs).DivUnrelated(emp.Summary())
		// Ground truth: divide the samples, then look at the distribution.
		bench, err := stochastic.NewEmpirical([]float64{benchSecs, benchSecs, benchSecs})
		if err != nil {
			return nil, err
		}
		truth, err := bench.Div(emp, rng, 60000)
		if err != nil {
			return nil, err
		}
		lo, hi, err := truth.Interval(0.95)
		if err != nil {
			return nil, err
		}
		covered := truth.Coverage(ruleVal.Lo(), ruleVal.Hi())
		tb.AddRowf(sc.name, ruleVal.String(), truth.String(),
			fmt.Sprintf("[%.1f,%.1f]", lo, hi), pct(covered))
		metrics[fmt.Sprintf("s%d_rule_cov", i)] = covered
	}

	// Cost comparison: one closed-form divide vs one resampled divide.
	empA, err := stochastic.NewEmpirical(scenarios[0].draws)
	if err != nil {
		return nil, err
	}
	v := empA.Summary()
	start := time.Now()
	const ruleReps = 1_000_000
	sink := stochastic.Value{}
	for i := 0; i < ruleReps; i++ {
		sink = stochastic.Point(benchSecs).DivUnrelated(v)
	}
	_ = sink
	rulePer := time.Since(start).Seconds() / ruleReps
	start = time.Now()
	const empReps = 50
	bench3, err := stochastic.NewEmpirical([]float64{benchSecs, benchSecs + 1e-9, benchSecs})
	if err != nil {
		return nil, err
	}
	for i := 0; i < empReps; i++ {
		if _, err := bench3.Div(empA, rng, 10000); err != nil {
			return nil, err
		}
	}
	empPer := time.Since(start).Seconds() / empReps
	speedup := empPer / rulePer
	metrics["rule_speedup"] = speedup

	b.WriteString("Propagating 'benchmark / load' two ways:\n")
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nClosed-form rule: %.0f ns/op; empirical resampling: %.0f µs/op (%.0fx slower)\n",
		rulePer*1e9, empPer*1e6, speedup)
	b.WriteString("On normal load the rule's interval covers ~95% of the true\ndistribution; on long-tailed load it loses tail coverage — the paper's\nstated tradeoff, now with numbers.\n")
	return &Result{ID: "ablation-empirical", Title: "Empirical ablation", Text: b.String(), Metrics: metrics}, nil
}

// runAblationPartition compares capacity-proportional and time-balanced
// decompositions across problem sizes on dedicated Platform 1.
func runAblationPartition(seed int64) (*Result, error) {
	_ = seed
	plat := cluster.Platform1()
	env, err := simenv.NewDedicated(plat)
	if err != nil {
		return nil, err
	}
	ms := make([]cluster.Machine, plat.Size())
	loads := make([]stochastic.Value, plat.Size())
	capWeights := make([]float64, plat.Size())
	for i := range ms {
		ms[i] = plat.Machine(i)
		loads[i] = stochastic.Point(1)
		capWeights[i] = ms[i].ElemRate
	}
	link, err := plat.Link(0, 1)
	if err != nil {
		return nil, err
	}

	run := func(part *sor.Partition) (float64, error) {
		b, err := sor.NewSimBackend(env, part, sor.IdentityMapping(plat.Size()))
		if err != nil {
			return 0, err
		}
		res, err := b.Run(20, 0)
		if err != nil {
			return 0, err
		}
		return res.ExecTime, nil
	}

	tb := NewTable("N", "capacity exec (s)", "balanced exec (s)", "speedup", "imbalance cap->bal")
	metrics := map[string]float64{}
	var bld strings.Builder
	for _, n := range []int{80, 120, 200, 400, 800} {
		capPart, err := sor.NewWeightedPartition(n, capWeights)
		if err != nil {
			return nil, err
		}
		balPart, err := sched.TimeBalancedPartition(n, ms, loads, link, 8)
		if err != nil {
			return nil, err
		}
		tCap, err := run(capPart)
		if err != nil {
			return nil, err
		}
		tBal, err := run(balPart)
		if err != nil {
			return nil, err
		}
		iCap, err := sched.Imbalance(capPart, n, ms, loads, link)
		if err != nil {
			return nil, err
		}
		iBal, err := sched.Imbalance(balPart, n, ms, loads, link)
		if err != nil {
			return nil, err
		}
		tb.AddRowf(n, fmt.Sprintf("%.4f", tCap), fmt.Sprintf("%.4f", tBal),
			fmt.Sprintf("%.2fx", tCap/tBal),
			fmt.Sprintf("%.2f -> %.2f", iCap, iBal))
		metrics[fmt.Sprintf("speedup_n%d", n)] = tCap / tBal
	}
	bld.WriteString("Dedicated Platform 1, 20 iterations, two decompositions:\n")
	bld.WriteString(tb.String())
	bld.WriteString("\nCommunication per strip is size-independent, so on small grids the\ntime-balanced cut shifts rows to the cheap edge strips; as N grows the\ntwo decompositions converge.\n")
	return &Result{ID: "ablation-partition", Title: "Partition ablation", Text: bld.String(), Metrics: metrics}, nil
}
