// Command loadgen generates production-load traces and summarizes recorded
// ones. Generation goes through the workload scenario subsystem: pick a
// library scenario (-scenario) or a scenario spec file (-spec: format
// version 2, whose machine and net entries are load specs with the keys of
// a fleet spec's cpu entries), and loadgen writes the versioned trace
// format (JSON header + one sample per line) that a "trace" load replays
// bit-identically. -list prints each library scenario's name, machine
// entry count, net load kind and spec hash. -replay summarizes an existing
// trace: distribution stats, modal structure, and the scenario scorecard
// (burst count, tail index, diurnal period). With none of -list, -scenario,
// -spec or -replay, loadgen prints its usage and exits 2.
//
// Usage:
//
//	loadgen -list
//	loadgen -scenario flash-crowd -machine 1 -duration 3600 -o crowd.trace
//	loadgen -spec myscenario.json -seed 7 -o custom.trace
//	loadgen -replay crowd.trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"prodpred/internal/load"
	"prodpred/internal/modal"
	"prodpred/internal/stats"
	"prodpred/internal/stochastic"
	"prodpred/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is loadgen on the given arguments; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "", "workload-library scenario to generate from (see -list)")
		specPath = fs.String("spec", "", "scenario spec JSON file to generate from")
		machine  = fs.Int("machine", 0, "scenario machine entry to generate")
		list     = fs.Bool("list", false, "list library scenarios and exit")
		duration = fs.Float64("duration", 3600, "trace length in virtual seconds")
		dt       = fs.Float64("dt", 0, "sampling interval (s); 0 = the process's native tick")
		seed     = fs.Int64("seed", 1, "random seed")
		out      = fs.String("o", "", "output trace path (default stdout)")
		replay   = fs.String("replay", "", "replay and summarize an existing trace")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	var err error
	switch {
	case *list:
		for _, name := range workload.Names() {
			sc, _ := workload.Lookup(name)
			net := "none"
			if sc.Net != nil {
				net = sc.Net.Kind
			}
			fmt.Fprintf(stdout, "%-18s %d machine entries, net %s, hash %s\n", name, len(sc.Machines), net, sc.Hash())
		}
	case *replay != "":
		err = summarize(stdout, *replay)
	case *scenario != "" || *specPath != "":
		err = generate(stdout, *scenario, *specPath, *machine, *duration, *dt, *seed, *out)
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 1
	}
	return 0
}

// resolveScenario picks the scenario source: an explicit spec file, else a
// library name.
func resolveScenario(scenario, specPath string) (*workload.ScenarioSpec, error) {
	if specPath != "" {
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		return workload.ParseScenario(data)
	}
	sc, ok := workload.Lookup(scenario)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (have %v)", scenario, workload.Names())
	}
	return sc, nil
}

func generate(stdout io.Writer, scenario, specPath string, machine int, duration, dt float64, seed int64, out string) error {
	sc, err := resolveScenario(scenario, specPath)
	if err != nil {
		return err
	}
	proc, err := sc.Machine(machine, seed)
	if err != nil {
		return err
	}
	if dt == 0 {
		dt = proc.Interval()
	}
	s, err := load.Record(proc, 0, duration, dt)
	if err != nil {
		return err
	}
	h := workload.TraceHeader{
		Scenario: sc.Name,
		SpecHash: sc.Hash(),
		Seed:     seed,
		Machine:  machine,
		DT:       dt,
		T0:       0,
	}
	w := stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := workload.WriteTrace(w, h, s.Values()); err != nil {
		return err
	}
	if out != "" {
		fmt.Fprintf(stdout, "wrote %d samples (%s, dt=%gs) to %s\n", s.Len(), sc.Name, dt, out)
	}
	return nil
}

func summarize(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	h, xs, err := workload.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	origin := h.Scenario
	if origin == "" {
		origin = "unlabeled trace"
	}
	sum, err := stats.Summarize(xs)
	if err != nil {
		return err
	}
	sv, err := stochastic.FromSample(xs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d samples, %s (seed %d, machine %d, hash %s)\n", path, len(xs), origin, h.Seed, h.Machine, h.SpecHash)
	fmt.Fprintf(w, "  mean %.4f  std %.4f  min %.4f  median %.4f  max %.4f  skew %.2f\n",
		sum.Mean, sum.StdDev, sum.Min, sum.Median, sum.Max, sum.Skewness)
	fmt.Fprintf(w, "  stochastic value: %s\n", sv)

	card := workload.NewScorecard(xs, h.DT)
	fmt.Fprintf(w, "  scorecard: %d bursts below mean-2sigma", card.BurstCount)
	if card.TailIndex > 0 {
		fmt.Fprintf(w, ", tail index %.2f (Hill; smaller = heavier)", card.TailIndex)
	} else {
		fmt.Fprintf(w, ", tail index n/a")
	}
	if card.DiurnalPeriod > 0 {
		fmt.Fprintf(w, ", dominant period %.0fs", card.DiurnalPeriod)
	} else {
		fmt.Fprintf(w, ", no dominant period")
	}
	fmt.Fprintln(w)

	mm, err := modal.FitBIC(xs, 6)
	if err != nil {
		return fmt.Errorf("modal fit: %w", err)
	}
	fmt.Fprintf(w, "  modes (BIC): %d\n", mm.K())
	occ := mm.Occupancy(xs)
	for i, m := range mm.Modes {
		fmt.Fprintf(w, "    mode %d: %-18s weight %.2f occupancy %.2f\n",
			i+1, m.Stochastic().String(), m.Weight, occ[i])
	}
	b, err := modal.AnalyzeBurstiness(mm, xs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  burstiness: %d transitions (rate %.3f), mean dwell %.1f samples\n",
		b.Transitions, b.TransitionRate, b.MeanDwell)
	v, single, err := modal.StochasticValue(mm, xs)
	if err != nil {
		return err
	}
	branch := "multi-modal weighted combination"
	if single {
		branch = "single dominant mode"
	}
	fmt.Fprintf(w, "  §2.1.2 stochastic value (%s): %s\n", branch, v)
	return nil
}
