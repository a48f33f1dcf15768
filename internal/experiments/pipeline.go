package experiments

import (
	"errors"
	"fmt"
	"math"

	"prodpred/internal/calib"
	"prodpred/internal/predict"
	"prodpred/internal/sched"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
)

// pipelineDiag, when attached to a productionConfig, receives per-monitor
// fault diagnostics — and, on observed series, the final calibration
// state — after the series completes.
type pipelineDiag struct {
	Readout     predict.Readout // per-machine reports, with their gap counters
	Calibration calib.Snapshot
}

// productionConfig describes a monitor->predict->execute series on a
// simulated production platform — the experimental loop behind Figures 9
// and 12-17.
type productionConfig struct {
	// spec is the platform, its load and sensor faults; its Warmup is how
	// long the monitors observe before the first run.
	spec         predict.PlatformSpec
	n            int // grid size
	iters        int // SOR iterations per run
	runs         int // number of back-to-back executions
	gap          float64
	partStrategy sched.Strategy
	maxStrategy  stochastic.MaxStrategy
	iterationRel structural.Relation
	// observe closes the loop: each run's measured execution time is fed
	// back through Service.Observe, so later predictions in the series
	// carry conformally calibrated intervals.
	observe bool
	// diag, when non-nil, is filled with per-monitor gap counters after
	// the series completes.
	diag *pipelineDiag
}

// runRecord is one production execution and its predictions.
type runRecord struct {
	Start   float64
	Pred    stochastic.Value // calibrated stochastic execution-time prediction
	Raw     stochastic.Value // uncalibrated model prediction (== Pred off feedback)
	Scale   float64          // calibration multiplier the prediction was issued with
	Actual  float64          // simulated execution time
	LoadsAt []float64        // raw availability per machine at run start
	// Quantiles is the full calibrated predictive quantile grid
	// (dist.GridLevels layout); QLo/QHi are its ends — the
	// central 95% interval of the distribution-valued prediction (grid
	// levels 0.025 and 0.975). Forecaster is the dominant per-machine
	// distribution-forecaster tag behind the prediction.
	Quantiles  []float64
	QLo, QHi   float64
	Forecaster string
}

// seriesMetrics summarizes a run series the way the paper's evaluation
// does.
type seriesMetrics struct {
	CaptureFrac float64 // fraction of actuals inside the stochastic interval
	MaxIntErr   float64 // max relative error of actuals outside the interval
	MaxMeanErr  float64 // max |actual - predicted mean| / actual
	MeanMeanErr float64 // average of the same
}

func summarizeRuns(recs []runRecord) seriesMetrics {
	var m seriesMetrics
	captured := 0
	for _, r := range recs {
		if r.Pred.Contains(r.Actual) {
			captured++
		} else if e := r.Pred.RelativeErrorOutside(r.Actual); e > m.MaxIntErr {
			m.MaxIntErr = e
		}
		me := math.Abs(r.Actual-r.Pred.Mean) / r.Actual
		if me > m.MaxMeanErr {
			m.MaxMeanErr = me
		}
		m.MeanMeanErr += me
	}
	if len(recs) > 0 {
		m.CaptureFrac = float64(captured) / float64(len(recs))
		m.MeanMeanErr /= float64(len(recs))
	}
	return m
}

// runProductionSeries executes the full pipeline as a thin series-runner
// over predict.Service: the service's NWS monitors warm up on the platform,
// a capacity-balanced partition is chosen from the first forecasts and
// pinned for the series, and then `runs` executions alternate predict ->
// execute -> advance, exactly as the paper's experiments interleave NWS
// readings with SOR runs.
func runProductionSeries(cfg productionConfig) ([]runRecord, error) {
	if cfg.runs <= 0 {
		return nil, errors.New("experiments: runs must be positive")
	}
	svc, err := predict.NewServiceFromSpec(&cfg.spec, nil)
	if err != nil {
		return nil, err
	}
	req := predict.Request{
		N:            cfg.n,
		Iterations:   cfg.iters,
		Strategy:     cfg.partStrategy,
		MaxStrategy:  cfg.maxStrategy,
		IterationRel: cfg.iterationRel,
		// The harness always records the full quantile grid; the serving
		// path computes it only on request, so opt in explicitly.
		Distribution: true,
	}
	part, err := svc.Partition(req)
	if err != nil {
		return nil, err
	}
	req.Partition = part
	backend, err := sor.NewSimBackend(svc.Env(), part, sor.IdentityMapping(len(cfg.spec.Machines)))
	if err != nil {
		return nil, err
	}

	var recs []runRecord
	prevExec := 0.0
	for run := 0; run < cfg.runs; run++ {
		if run > 0 {
			// Advance the clock only when the next run is about to start,
			// so the monitors never sample past the final run's start.
			if err := svc.Advance(prevExec + cfg.gap); err != nil {
				return nil, err
			}
		}
		pred, err := svc.Predict(req)
		if err != nil {
			return nil, err
		}
		res, err := backend.Run(cfg.iters, pred.Time)
		if err != nil {
			return nil, err
		}
		rec := runRecord{
			Start: pred.Time, Pred: pred.Value, Raw: pred.Raw,
			Scale: pred.CalibrationScale, Actual: res.ExecTime,
			Forecaster: pred.Dist.Forecaster,
		}
		if n := len(pred.Dist.Calibrated); n > 0 {
			rec.Quantiles = append([]float64(nil), pred.Dist.Calibrated...)
			rec.QLo, rec.QHi = pred.Dist.Calibrated[0], pred.Dist.Calibrated[n-1]
		}
		for _, lr := range pred.Loads {
			rec.LoadsAt = append(rec.LoadsAt, lr.Raw)
		}
		recs = append(recs, rec)
		prevExec = res.ExecTime
		if cfg.observe {
			if _, err := svc.Observe(pred.ID, res.ExecTime); err != nil {
				return nil, err
			}
		}
	}
	if cfg.diag != nil {
		cfg.diag.Readout = svc.Readout()
		cfg.diag.Calibration = svc.Accuracy()
	}
	return recs, nil
}

// simulatedSpec is predict.SimulatedSpec without its error, which only a
// platform other than 1 or 2 returns.
func simulatedSpec(platform int, seed int64) predict.PlatformSpec {
	spec, err := predict.SimulatedSpec(platform, seed)
	if err != nil {
		panic(err) // static platform number; cannot fail
	}
	return spec
}

// burstySpec is the bursty Platform 2 of the observed-series experiments:
// the 4-modal load on machine i seeded seed+7i, ethernet contention on the
// link, and a 600 s warm-up.
func burstySpec(seed int64) predict.PlatformSpec {
	spec := simulatedSpec(2, seed)
	for i := range spec.CPU {
		spec.CPU[i].Seed = seed + int64(i)*7
	}
	spec.Warmup = 600
	return spec
}

// renderRunSeries renders a run series as the paper's Figures 9/12/14/16:
// actual execution times against the stochastic interval.
func renderRunSeries(recs []runRecord) string {
	tb := NewTable("t(start)", "predicted", "interval", "actual", "inside", "err-out")
	for _, r := range recs {
		lo, hi := r.Pred.Interval()
		inside := "yes"
		errOut := ""
		if !r.Pred.Contains(r.Actual) {
			inside = "NO"
			errOut = pct(r.Pred.RelativeErrorOutside(r.Actual))
		}
		tb.AddRowf(fmt.Sprintf("%.0f", r.Start), r.Pred.String(),
			fmt.Sprintf("[%.2f,%.2f]", lo, hi),
			fmt.Sprintf("%.2f", r.Actual), inside, errOut)
	}
	xs := make([]float64, len(recs))
	actual := make([]float64, len(recs))
	los := make([]float64, len(recs))
	his := make([]float64, len(recs))
	means := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = r.Start
		actual[i] = r.Actual
		los[i], his[i] = r.Pred.Interval()
		means[i] = r.Pred.Mean
	}
	plot := RenderSeriesMulti(xs, [][]float64{los, his, means, actual},
		[]byte{'-', '-', 'm', 'A'}, 64, 14)
	return tb.String() + "\n  A=actual, m=predicted mean, -=stochastic interval bounds\n" + plot
}

// renderLoadTrace renders machine loads at run starts (the paper's
// Figures 13/15/17 companion load plots).
func renderLoadTrace(recs []runRecord, machine int) string {
	xs := make([]float64, len(recs))
	ys := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = r.Start
		ys[i] = r.LoadsAt[machine]
	}
	return RenderSeries(xs, ys, 64, 10)
}
