package prodpred

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (go test -bench=. -benchmem). Each BenchmarkTableN /
// BenchmarkFigureN runs the corresponding experiment end to end and reports
// its headline shape metric alongside the timing, so a single bench run
// doubles as a reproduction report. Micro-benchmarks of the core stochastic
// operations and the SOR kernel follow.

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"prodpred/internal/api"
	"prodpred/internal/dist"
	"prodpred/internal/experiments"
	"prodpred/internal/load"
	"prodpred/internal/modal"
	"prodpred/internal/obs"
	"prodpred/internal/predict"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
)

// benchExperiment runs a registered experiment once per iteration and
// publishes selected metrics through the benchmark reporter.
func benchExperiment(b *testing.B, id string, reported ...string) {
	b.Helper()
	e, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err = e.Run(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range reported {
		v, err := res.Metric(m)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v, m)
	}
}

func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, "table1", "relSpreadA", "relSpreadB")
}

func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, "table2", "add_mc_spread_err", "mul_mc_spread_err")
}

func BenchmarkFigure1And2(b *testing.B) {
	benchExperiment(b, "fig1-2", "ks_p", "coverage2s")
}

func BenchmarkFigure3And4(b *testing.B) {
	benchExperiment(b, "fig3-4", "coverage2s", "mean_mbit")
}

func BenchmarkFigure5(b *testing.B) {
	benchExperiment(b, "fig5", "modes")
}

func BenchmarkFigure6(b *testing.B) {
	benchExperiment(b, "fig6", "strips")
}

func BenchmarkFigure7(b *testing.B) {
	benchExperiment(b, "fig7", "max_skew")
}

func BenchmarkFigure8(b *testing.B) {
	benchExperiment(b, "fig8", "mean", "spread")
}

func BenchmarkFigure9(b *testing.B) {
	benchExperiment(b, "fig9", "captured_all", "max_mean_err")
}

func BenchmarkFigure10And11(b *testing.B) {
	benchExperiment(b, "fig10-11", "modes", "transition_rate")
}

func BenchmarkFigure12And13(b *testing.B) {
	benchExperiment(b, "fig12-13", "capture_frac", "max_interval_err", "max_mean_err")
}

func BenchmarkFigure14And15(b *testing.B) {
	benchExperiment(b, "fig14-15", "capture_frac", "max_interval_err", "max_mean_err")
}

func BenchmarkFigure16And17(b *testing.B) {
	benchExperiment(b, "fig16-17", "capture_frac", "max_interval_err", "max_mean_err")
}

func BenchmarkDedicated(b *testing.B) {
	benchExperiment(b, "dedicated", "worst_err")
}

func BenchmarkLongtail(b *testing.B) {
	benchExperiment(b, "longtail", "long_cov2")
}

func BenchmarkMaxOps(b *testing.B) {
	benchExperiment(b, "maxops", "clark_mean_err")
}

func BenchmarkAllocation(b *testing.B) {
	benchExperiment(b, "allocation", "high-penalty_conservative_penalty", "high-penalty_mean_penalty")
}

func BenchmarkAblationIterationRel(b *testing.B) {
	benchExperiment(b, "ablation-iteration-rel", "related_capture", "unrelated_capture")
}

func BenchmarkAblationForecaster(b *testing.B) {
	benchExperiment(b, "ablation-forecaster", "bursty-4mode_best_rmse")
}

func BenchmarkAblationModal(b *testing.B) {
	benchExperiment(b, "ablation-modal", "paper_cov", "mixture_cov")
}

func BenchmarkAblationMaxStrategy(b *testing.B) {
	benchExperiment(b, "ablation-maxstrategy", "probabilistic_capture")
}

func BenchmarkAblationEmpirical(b *testing.B) {
	benchExperiment(b, "ablation-empirical", "s0_rule_cov", "s1_rule_cov")
}

func BenchmarkAblationPartition(b *testing.B) {
	benchExperiment(b, "ablation-partition", "speedup_n120")
}

func BenchmarkAblationObjective(b *testing.B) {
	benchExperiment(b, "ablation-objective", "mean_allocA", "p95_allocA")
}

func BenchmarkAblationSelfSched(b *testing.B) {
	benchExperiment(b, "ablation-selfsched", "self-sched_chunk5", "static_mean-balanced")
}

func BenchmarkHostTCP(b *testing.B) {
	benchExperiment(b, "host-tcp", "comp_ratio", "capture_frac")
}

func BenchmarkHostBench(b *testing.B) {
	benchExperiment(b, "host-bench", "coverage2s")
}

func BenchmarkSORTCPDistributed(b *testing.B) {
	n := 257
	part, err := sor.NewEqualPartition(n, 4)
	if err != nil {
		b.Fatal(err)
	}
	backend, err := sor.NewTCPBackend(part)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := sor.NewGrid(n)
		g.SetBoundary(func(x, y float64) float64 { return x + y })
		if _, err := backend.Run(g, sor.DefaultOmega, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Core-operation micro-benchmarks ---------------------------------------

func BenchmarkStochasticAddUnrelated(b *testing.B) {
	x := stochastic.New(8, 2)
	y := stochastic.New(5, 1.5)
	var sink stochastic.Value
	for i := 0; i < b.N; i++ {
		sink = x.AddUnrelated(y)
	}
	_ = sink
}

func BenchmarkStochasticMulUnrelated(b *testing.B) {
	x := stochastic.New(8, 2)
	y := stochastic.New(5, 1.5)
	var sink stochastic.Value
	for i := 0; i < b.N; i++ {
		sink = x.MulUnrelated(y)
	}
	_ = sink
}

func BenchmarkStochasticClarkMax(b *testing.B) {
	vs := []stochastic.Value{
		stochastic.New(4, 0.5), stochastic.New(3, 2), stochastic.New(3, 1),
	}
	for i := 0; i < b.N; i++ {
		if _, err := stochastic.Max(stochastic.Probabilistic, vs...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSORSweep(b *testing.B) {
	g, err := sor.NewGrid(512)
	if err != nil {
		b.Fatal(err)
	}
	g.SetBoundary(func(x, y float64) float64 { return x + y })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SweepPhase(sor.Red, 1, 511, sor.DefaultOmega)
		g.SweepPhase(sor.Black, 1, 511, sor.DefaultOmega)
	}
	elems := int64(g.InteriorPoints())
	b.SetBytes(elems * 8)
}

func BenchmarkSORLocalParallel(b *testing.B) {
	n := 512
	part, err := sor.NewEqualPartition(n, 4)
	if err != nil {
		b.Fatal(err)
	}
	backend, err := sor.NewLocalBackend(part)
	if err != nil {
		b.Fatal(err)
	}
	g, _ := sor.NewGrid(n)
	g.SetBoundary(func(x, y float64) float64 { return x + y })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.Run(g, sor.DefaultOmega, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSORSolveTol exercises the fused convergence path: with tol > 0
// every iteration needs a residual, which SweepPhaseResidual folds into the
// black half-sweep so the grid is touched three times per iteration instead
// of four.
func BenchmarkSORSolveTol(b *testing.B) {
	g, err := sor.NewGrid(256)
	if err != nil {
		b.Fatal(err)
	}
	g.SetBoundary(func(x, y float64) float64 { return x*x - y*y })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run := g.Clone()
		b.StartTimer()
		if _, err := run.Solve(sor.OptimalOmega(256), 1e-6, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCMoments measures the sharded Monte Carlo engine on the
// Table 2 unrelated-add cross-check workload (60k draws).
func BenchmarkMCMoments(b *testing.B) {
	x := stochastic.New(8, 2)
	y := stochastic.New(5, 1.5)
	mc := stochastic.MC{Seed: 1}
	f := func(rng *rand.Rand) float64 { return x.Sample(rng) + y.Sample(rng) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.Moments(60000, f); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSORConfig is the capacity-balanced N=1000 run on Platform 1 both
// structural-model benchmarks evaluate.
func benchSORConfig(b *testing.B) *SORConfig {
	b.Helper()
	plat := Platform1()
	weights := make([]float64, plat.Size())
	machines := make([]Machine, plat.Size())
	for i := range weights {
		machines[i] = plat.Machine(i)
		weights[i] = machines[i].ElemRate
	}
	part, err := NewWeightedPartition(1000, weights)
	if err != nil {
		b.Fatal(err)
	}
	link, _ := plat.Link(0, 1)
	return &SORConfig{
		N: 1000, Iterations: 20, Partition: part, Machines: machines,
		Link: link, MaxStrategy: LargestMean,
	}
}

func BenchmarkStructuralSORPredict(b *testing.B) {
	cfg := benchSORConfig(b)
	params := cfg.DedicatedParams()
	params[LoadParam(0)] = NewValue(0.48, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Predict(params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSORPointEval times the same model at one point draw through the
// point evaluator — the unit cost of the distribution grid, which
// BenchmarkStructuralSORPredict's tree walk was before it.
func BenchmarkSORPointEval(b *testing.B) {
	cfg := benchSORConfig(b)
	eval, err := cfg.PointEvaluator()
	if err != nil {
		b.Fatal(err)
	}
	loads := []float64{0.48, 1, 1, 1}
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sink, err = eval.Phase(loads, 1); err != nil {
			b.Fatal(err)
		}
	}
	_ = sink
}

// BenchmarkSORValueEval times the same model at the same stochastic
// parameters as BenchmarkStructuralSORPredict through the value evaluator —
// what a cache miss that is the first of its grid size pays for the model
// since the serving path stopped building the tree.
func BenchmarkSORValueEval(b *testing.B) {
	cfg := benchSORConfig(b)
	eval, err := cfg.PointEvaluator()
	if err != nil {
		b.Fatal(err)
	}
	loads := []Value{NewValue(0.48, 0.05), Point(1), Point(1), Point(1)}
	var sink Value
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sink, err = eval.PhaseValue(loads, Point(1)); err != nil {
			b.Fatal(err)
		}
	}
	_ = sink
}

func BenchmarkValueSample(b *testing.B) {
	v := stochastic.New(12, 1.2)
	rng := rand.New(rand.NewSource(1))
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = v.Sample(rng)
	}
	_ = sink
}

// --- Serving-tick micro-benchmarks -----------------------------------------
//
// What one virtual tick and one cache miss of predictd are made of, on the
// bursty four-mode platform 2.

func burstyEnv(b *testing.B) *Env {
	b.Helper()
	plat := Platform2()
	cpu := make([]LoadProcess, plat.Size())
	for m := range cpu {
		p, err := BurstyLoad(int64(m + 1))
		if err != nil {
			b.Fatal(err)
		}
		cpu[m] = p
	}
	net, err := EthernetContentionLoad(9)
	if err != nil {
		b.Fatal(err)
	}
	env, err := NewEnv(plat, cpu, net)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkMonitorSample times one sensor period of a monitor whose
// 512-sample ring is full: the sample, the battery's postmortem and, on a
// CPU monitor, the distribution tournament's round. The mixture competitor
// refits on every 16th round and races its model orders on every 64th, so
// ns/op is the amortised cost only once b.N spans many 64-round cycles (the
// default benchtime does; -benchtime 1x does not).
func BenchmarkMonitorSample(b *testing.B) {
	env := burstyEnv(b)
	cpu, err := NewCPUMonitor(env, 0, 5, 512)
	if err != nil {
		b.Fatal(err)
	}
	bw, err := NewBandwidthMonitor(env, 0, 1, 8000, 5, 512)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		mon  *Monitor
	}{{"cpu", cpu}, {"bandwidth", bw}} {
		// The framework calls the function again for every b.N it tries:
		// the monitor's clock carries on from where the last call left it.
		at := 5.0 * 600
		if err := c.mon.RunUntil(at); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				at += 5
				if err := c.mon.RunUntil(at); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSequenceReplay prices a load process's two paths: forward
// generation, one tick per op, and the rare path, a read below the ticks
// kept (load.Window behind the newest: nothing holds this process) that
// rebuilds the generator and replays it from tick 0 to tick 2599, the small fleets' 2600 s warm-up (a
// bandwidth monitor created late on such a tenant reads its first tick
// that way). The replay case reports ns/tick beside ns/op.
func BenchmarkSequenceReplay(b *testing.B) {
	const ticks = 2600
	b.Run("forward", func(b *testing.B) {
		seq, err := load.EthernetContention(1)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			seq.At(float64(i))
		}
	})
	b.Run("replay-2600", func(b *testing.B) {
		seq, err := load.EthernetContention(1)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			seq.At(ticks + load.Window) // tick ticks-1 falls out of the ring
			b.StartTimer()
			seq.At(ticks - 1)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ticks), "ns/tick")
	})
}

// BenchmarkFitBIC64 times one refit of the mixture competitor: the
// BIC-selected EM fit (k = 1..4) of a 64-sample bursty window, through the
// package-level call so the figure is comparable across commits (the
// monitor's own refits reuse one workspace and allocate less).
func BenchmarkFitBIC64(b *testing.B) {
	benchFitBIC64(b, BurstyLoad)
}

// BenchmarkFitBIC64Unimodal is the same refit on a single-mode window, where
// k = 1 wins: the mixtures with more components are over-fitted, which is
// where EM crawls, so this is the dear case and the bursty window the cheap
// one.
func BenchmarkFitBIC64Unimodal(b *testing.B) {
	benchFitBIC64(b, CenterModeLoad)
}

func benchFitBIC64(b *testing.B, load func(seed int64) (LoadProcess, error)) {
	window := fitWindow64(b, load)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := modal.FitBIC(window, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// fitWindow64 is the 64 samples, 5 s apart, of load's seed-3 process that
// the refit benchmarks fit.
func fitWindow64(b *testing.B, load func(seed int64) (LoadProcess, error)) []float64 {
	b.Helper()
	p, err := load(3)
	if err != nil {
		b.Fatal(err)
	}
	window := make([]float64, 64)
	for i := range window {
		window[i] = p.At(5 * float64(i))
	}
	return window
}

// BenchmarkRefit64 times a warm refit of BenchmarkFitBIC64's window: EM
// started from the window's own BIC fit, at its order, through the
// package-level call — the floor of the refits the mixture competitor makes
// between races, whose fit in hand is sixteen samples old (iters/op is the
// EM iterations it takes).
func BenchmarkRefit64(b *testing.B) {
	window := fitWindow64(b, BurstyLoad)
	fit, err := modal.FitBIC(window, 4)
	if err != nil {
		b.Fatal(err)
	}
	var mm *modal.MixtureModel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mm, err = modal.Refit(window, fit.Modes); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(mm.Iterations), "iters/op")
}

// BenchmarkMixtureQuantileGrid times the quantile grid the mixture competitor
// tabulates on every refit and every restore: the nine grid levels of a
// four-mode fit of BenchmarkFitBIC64's window.
func BenchmarkMixtureQuantileGrid(b *testing.B) {
	fit, err := modal.FitEM(fitWindow64(b, BurstyLoad), 4)
	if err != nil {
		b.Fatal(err)
	}
	mx, err := fit.Mixture()
	if err != nil {
		b.Fatal(err)
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range dist.GridLevels {
			sink += mx.Quantile(p)
		}
	}
	_ = sink
}

// BenchmarkTrackerObserveQuantiles times one outcome with a quantile grid
// into a tracker whose window is full: the record, the drift detectors (a
// mode-count check every 16th) and the ten conformal quantiles. The
// residuals are normal (`unimodal`: the regime's baseline is one mode, so
// every check fits a mixture) or alternate between two modes 4σ apart
// (`bimodal`: a multi-modal baseline, whose checks fit nothing).
func BenchmarkTrackerObserveQuantiles(b *testing.B) {
	for _, bc := range []struct {
		name  string
		modes []float64 // residual centers in σ, drawn in turn
		sd    float64   // residual spread around them in σ
	}{
		{"unimodal", []float64{0}, 1},
		{"bimodal", []float64{-2, 2}, 0.3},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr := NewAccuracyTracker()
			// A centered predictive distribution: every level has scores
			// on both sides.
			raw := stochastic.FromMeanSigma(100, 5)
			grid := dist.NormalGrid(100, 5)
			rng := rand.New(rand.NewSource(1))
			outcomes := make([]CalibrationOutcome, 256)
			for i := range outcomes {
				z := bc.modes[i%len(bc.modes)] + bc.sd*rng.NormFloat64()
				outcomes[i] = CalibrationOutcome{Raw: raw, Calibrated: raw, Actual: 100 + 5*z, RawQuantiles: grid}
			}
			observe := func(i int) {
				o := outcomes[i%len(outcomes)]
				o.ID, o.Time = uint64(i+1), float64(i+1)
				tr.Observe(o)
			}
			for i := 0; i < len(outcomes); i++ {
				observe(i)
			}
			if got := tr.ExportState().BaseModes; got != len(bc.modes) {
				b.Fatalf("warm-up left a %d-mode baseline, want %d", got, len(bc.modes))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				observe(len(outcomes) + i)
			}
		})
	}
}

// BenchmarkDistGrid times one distribution-valued prediction that misses
// the tick cache (a pinned partition bypasses it): the per-machine reports,
// the structural model, and the 64-draw Latin-hypercube quantile grid.
func BenchmarkDistGrid(b *testing.B) {
	spec, err := SimulatedPlatformSpec(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec.Warmup = 600
	svc, err := NewPredictionService(spec)
	if err != nil {
		b.Fatal(err)
	}
	req := PredictRequest{N: 1000, Iterations: 20, Distribution: true}
	if req.Partition, err = svc.Partition(req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Predict(req); err != nil {
			b.Fatal(err)
		}
	}
}

// warmTick is BenchmarkDistGrid's platform with the tick cache in play: the
// clock has just moved — by less than a sensor period, so no monitor took a
// sample — and one distribution-valued shape of grid size 1000 has been
// asked since. Benchmarks of misses on a warm tick call it again whenever
// they have used the tick up.
func warmTick(b *testing.B, svc *PredictionService) {
	b.Helper()
	if err := svc.Advance(1e-3); err != nil {
		b.Fatal(err)
	}
	if _, err := svc.Predict(PredictRequest{N: 1000, Iterations: 20, Distribution: true}); err != nil {
		b.Fatal(err)
	}
}

func warmTickService(b *testing.B, sizes int) *PredictionService {
	b.Helper()
	spec, err := SimulatedPlatformSpec(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec.Warmup = 600
	svc, err := NewPredictionService(spec)
	if err != nil {
		b.Fatal(err)
	}
	for n := 1000; n < 1000+sizes; n++ { // every grid size's bandwidth monitor exists
		if _, err := svc.Predict(PredictRequest{N: n, Iterations: 20}); err != nil {
			b.Fatal(err)
		}
	}
	warmTick(b, svc)
	return svc
}

// benchWarmTickMisses times Predict of request(i) for i in [0, perTick) on
// a warm tick, starting a new tick, untimed, whenever those are used up.
func benchWarmTickMisses(b *testing.B, svc *PredictionService, perTick int, request func(i int) PredictRequest) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perTick == 0 && i > 0 {
			b.StopTimer()
			warmTick(b, svc)
			b.StartTimer()
		}
		if _, err := svc.Predict(request(i % perTick)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictMissWarmTick times a scalar cache miss on a tick that has
// been asked before: another iteration count of a grid size already asked
// (the shape level alone), and the first shape of another grid size (the
// size level: partition, bandwidth report, model — not the monitors).
func BenchmarkPredictMissWarmTick(b *testing.B) {
	b.Run("iterations", func(b *testing.B) {
		benchWarmTickMisses(b, warmTickService(b, 1), 2048, func(i int) PredictRequest {
			return PredictRequest{N: 1000, Iterations: 100 + i}
		})
	})
	b.Run("size", func(b *testing.B) {
		const sizes = 32
		benchWarmTickMisses(b, warmTickService(b, sizes+1), sizes, func(i int) PredictRequest {
			return PredictRequest{N: 1001 + i, Iterations: 20}
		})
	})
}

// BenchmarkPredictLevelsMissSharedDraws times a distribution-valued miss of
// another iteration count on a grid size whose 64 draws the tick already
// has: BenchmarkDistGrid without the monitors, the model and the draws.
func BenchmarkPredictLevelsMissSharedDraws(b *testing.B) {
	levels := []float64{0.5, 0.95}
	benchWarmTickMisses(b, warmTickService(b, 1), 2048, func(i int) PredictRequest {
		return PredictRequest{N: 1000, Iterations: 100 + i, Levels: levels}
	})
}

// waveFleet is the fleet-ops workload's fleet, in process: n FleetSpecs
// tenants, live, warmed up for warmup seconds (fleet-ops: 120) plus stagger
// seconds per tenant index mod 16 — one 5 s tick, as the workload staggers
// them, so a sixteenth of them refit on any wave, not all on one — each asked
// four grid sizes so its four bandwidth monitors exist. Its pipeline metrics
// go to metrics, when not nil.
func waveFleet(b *testing.B, metrics *obs.Registry, n int, stagger, warmup float64) *PredictRegistry {
	b.Helper()
	reg := predict.NewRegistryWith(predict.RegistryOptions{Metrics: metrics})
	for i, spec := range predict.FleetSpecs(n, 1) {
		spec.Warmup = warmup + stagger*float64(i%16)
		if err := reg.RegisterSpec(spec); err != nil {
			b.Fatal(err)
		}
		for _, size := range []int{400, 800, 1200, 1600} {
			if _, err := reg.Predict(PredictRequest{Platform: spec.Name, N: size, Iterations: 10}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return reg
}

// fleetWave steps every live tenant's clock by dt: the one line to replace
// with a loop over reg.Services() to time a commit that predates
// Registry.AdvanceAll.
func fleetWave(reg *PredictRegistry, dt float64) error {
	_, _, err := reg.AdvanceAll(dt)
	return err
}

// BenchmarkFleetAdvance times one fleet-wide 5 s wave over 192 tenants —
// what POST /advance without a platform costs under the HTTP layer — in two
// parts: the call (wave-ns/op), which moves every clock and returns, and the
// drain of what it leaves to the background (drain-ns/op): the monitors'
// catch-up and the mixture refits, spread over GOMAXPROCS−1 workers, so
// compare runs at the same -cpu. ns/op is their sum, the wave's whole cost,
// which is what it timed when the catch-up ran inside the call. A daemon
// drains in the idle gap between two waves, or on the first reads.
func BenchmarkFleetAdvance(b *testing.B) {
	b.Run("tenants=192", func(b *testing.B) {
		reg := waveFleet(b, nil, 192, 5, 120)
		predict.WaitRefits()
		var wave, drain time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if err := fleetWave(reg, 5); err != nil {
				b.Fatal(err)
			}
			waved := time.Now()
			predict.WaitRefits()
			wave += waved.Sub(start)
			drain += time.Since(waved)
		}
		b.ReportMetric(float64(wave.Nanoseconds())/float64(b.N), "wave-ns/op")
		b.ReportMetric(float64(drain.Nanoseconds())/float64(b.N), "drain-ns/op")
	})
}

// BenchmarkFleetRefitWave times the wave of a refit storm: 192 tenants
// warmed up together, so that every CPU monitor of the fleet refits its
// mixture on the same wave, once every 16. A monitor has taken 24
// postmortem rounds at the end of its 120 s warm-up and one more per wave;
// "race" times the waves whose round count is a multiple of 64, on which
// every refit races the model orders, and "between-races" the other refit
// waves — warm refits since they were split, races before. The waves
// between are stepped untimed. A wave leaves its refits to the background,
// so the storm is timed in two parts: the wave (wave-ns/op) and the drain
// of its refits (drain-ns/op). ns/op is their sum, the storm's whole cost,
// which is what it timed when the refits ran inside the wave.
func BenchmarkFleetRefitWave(b *testing.B) {
	for _, c := range []struct {
		name string
		due  func(obs int) bool
	}{
		{"race", func(obs int) bool { return obs%64 == 0 }},
		{"between-races", func(obs int) bool { return obs%16 == 0 && obs%64 != 0 }},
	} {
		b.Run(c.name, func(b *testing.B) {
			reg := waveFleet(b, nil, 192, 0, 120)
			obs := 24
			var wave, drain time.Duration
			predict.WaitRefits()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for !c.due(obs + 1) {
					if err := fleetWave(reg, 5); err != nil {
						b.Fatal(err)
					}
					predict.WaitRefits()
					obs++
				}
				b.StartTimer()
				start := time.Now()
				if err := fleetWave(reg, 5); err != nil {
					b.Fatal(err)
				}
				waved := time.Now()
				predict.WaitRefits()
				wave += waved.Sub(start)
				drain += time.Since(waved)
				obs++
			}
			b.ReportMetric(float64(wave.Nanoseconds())/float64(b.N), "wave-ns/op")
			b.ReportMetric(float64(drain.Nanoseconds())/float64(b.N), "drain-ns/op")
		})
	}
}

// BenchmarkServiceAdvanceTick times one tenant's one-period tick: four CPU
// and four bandwidth monitors each take a sample, on the calling goroutine.
// "warmup=120s" is fleet-ops' warm-up (24-sample rings); "wrapped" the small
// fleets' 2600 s, whose 512-sample rings have wrapped.
func BenchmarkServiceAdvanceTick(b *testing.B) {
	for _, c := range []struct {
		name   string
		warmup float64
	}{{"warmup=120s", 120}, {"wrapped", 2600}} {
		b.Run(c.name, func(b *testing.B) {
			svc := waveFleet(b, nil, 1, 5, c.warmup).Services()[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.Advance(5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// discardResponse is a ResponseWriter that counts and drops the body: a
// scraper that reads as fast as the handler writes.
type discardResponse struct {
	header http.Header
	n      int
}

func (d *discardResponse) Header() http.Header { return d.header }
func (d *discardResponse) WriteHeader(int)     {}
func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// BenchmarkScrape times one GET /metrics through the daemon's handler on
// fleet-ops' fleet: 192 tenants, each asked its four grid sizes, with the
// HTTP and scheduler families beside theirs. B/op and allocs/op are the
// scrape's own garbage; text-bytes is the size of the exposition.
func BenchmarkScrape(b *testing.B) {
	b.Run("tenants=192", func(b *testing.B) {
		metrics := obs.NewRegistry()
		h := api.NewHandler(waveFleet(b, metrics, 192, 5, 120), api.Options{Metrics: metrics})
		predict.WaitRefits()
		req := httptest.NewRequest("GET", "/metrics", nil)
		w := &discardResponse{header: make(http.Header)}
		h.ServeHTTP(w, req)
		text := w.n
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.n = 0
			h.ServeHTTP(w, req)
		}
		b.ReportMetric(float64(text), "text-bytes")
	})
}
