// Command sorpredict runs the full prediction pipeline end to end on a
// simulated production platform: monitor CPU availability with the NWS
// reimplementation, build the SOR structural model, predict execution time
// as a stochastic value, execute the run, and compare. The whole
// monitor->forecast->model->schedule->predict flow lives in the shared
// predict.Service; this command is one thin run loop over it.
//
// Usage:
//
//	sorpredict -platform 2 -n 1600 -iters 10 -runs 20 -seed 1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"prodpred/internal/predict"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
)

func main() {
	var (
		platformID = flag.Int("platform", 2, "paper platform: 1 (tri-modal) or 2 (bursty)")
		n          = flag.Int("n", 1600, "grid size N (NxN)")
		iters      = flag.Int("iters", 10, "SOR iterations per run")
		runs       = flag.Int("runs", 10, "number of executions")
		seed       = flag.Int64("seed", 1, "random seed")
		strategy   = flag.String("strategy", "mean", "partition strategy: mean | conservative | optimistic | balanced")
	)
	flag.Parse()
	if err := run(os.Stdout, *platformID, *n, *iters, *runs, *seed, *strategy); err != nil {
		fmt.Fprintln(os.Stderr, "sorpredict:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, platformID, n, iters, runs int, seed int64, strategy string) error {
	spec, err := predict.SimulatedSpec(platformID, seed)
	if err != nil {
		return err
	}
	spec.Warmup = 900 // NWS warmup
	svc, err := predict.NewServiceFromSpec(&spec, nil)
	if err != nil {
		return err
	}
	plat := svc.Platform()
	fmt.Fprintf(w, "Platform %d (%s), %dx%d grid, %d iterations per run\n\n",
		platformID, plat.Name, n, n, iters)

	req := predict.Request{N: n, Iterations: iters, MaxStrategy: stochastic.LargestMean}
	if err := req.SetStrategy(strategy); err != nil {
		return err
	}
	part, err := svc.Partition(req)
	if err != nil {
		return err
	}
	req.Partition = part
	fmt.Fprintf(w, "Strip decomposition (%s strategy) from first NWS forecasts:\n", strategy)
	fmt.Fprintln(w, part.Render())

	backend, err := sor.NewSimBackend(svc.Env(), part, sor.IdentityMapping(plat.Size()))
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-10s %-22s %-22s %-10s %s\n", "t(start)", "prediction", "interval", "actual", "verdict")
	captured := 0
	for r := 0; r < runs; r++ {
		pred, err := svc.Predict(req)
		if err != nil {
			return err
		}
		res, err := backend.Run(iters, pred.Time)
		if err != nil {
			return err
		}
		verdict := "inside"
		if pred.Value.Contains(res.ExecTime) {
			captured++
		} else {
			verdict = fmt.Sprintf("outside by %.1f%%", pred.Value.RelativeErrorOutside(res.ExecTime)*100)
		}
		if pred.Degraded() {
			verdict += " (degraded monitors)"
		}
		lo, hi := pred.Value.Interval()
		fmt.Fprintf(w, "%-10.0f %-22s [%7.2f,%7.2f]     %-10.2f %s\n",
			pred.Time, pred.Value.String(), lo, hi, res.ExecTime, verdict)
		if err := svc.Advance(res.ExecTime + 30); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\nCaptured %d/%d runs inside the stochastic interval.\n", captured, runs)
	return nil
}
