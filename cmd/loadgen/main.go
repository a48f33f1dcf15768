// Command loadgen generates production-load traces and summarizes recorded
// ones. Generation goes through the workload scenario subsystem: pick a
// library scenario (-scenario) or a scenario spec file (-spec), and loadgen
// writes the versioned trace format (JSON header + one sample per line)
// that predict.LoadSpec{Kind: "trace"} replays bit-identically. -replay
// summarizes an existing trace: distribution stats, modal structure, and
// the scenario scorecard (burst count, tail index, diurnal period). With
// none of -list, -scenario, -spec or -replay, loadgen prints its usage and
// exits 2.
//
// Usage:
//
//	loadgen -list
//	loadgen -scenario flash-crowd -machine 1 -duration 3600 -o crowd.trace
//	loadgen -spec myscenario.json -seed 7 -o custom.trace
//	loadgen -replay crowd.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"prodpred/internal/load"
	"prodpred/internal/modal"
	"prodpred/internal/stats"
	"prodpred/internal/stochastic"
	"prodpred/internal/workload"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "workload-library scenario to generate from (see -list)")
		specPath = flag.String("spec", "", "scenario spec JSON file to generate from")
		machine  = flag.Int("machine", 0, "scenario machine entry to generate")
		list     = flag.Bool("list", false, "list library scenarios and exit")
		duration = flag.Float64("duration", 3600, "trace length in virtual seconds")
		dt       = flag.Float64("dt", 0, "sampling interval (s); 0 = the process's native tick")
		seed     = flag.Int64("seed", 1, "random seed")
		out      = flag.String("o", "", "output trace path (default stdout)")
		replay   = flag.String("replay", "", "replay and summarize an existing trace")
	)
	flag.Parse()

	var err error
	switch {
	case *list:
		for _, name := range workload.Names() {
			sc, _ := workload.Lookup(name)
			fmt.Printf("%-18s %d machine entries, dt=%gs, hash %s\n", name, len(sc.Machines), sc.DT, sc.Hash())
		}
	case *replay != "":
		err = summarize(*replay)
	case *scenario != "" || *specPath != "":
		err = generate(*scenario, *specPath, *machine, *duration, *dt, *seed, *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
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

func generate(scenario, specPath string, machine int, duration, dt float64, seed int64, out string) error {
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
	w := os.Stdout
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
		fmt.Printf("wrote %d samples (%s, dt=%gs) to %s\n", s.Len(), sc.Name, dt, out)
	}
	return nil
}

func summarize(path string) error {
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
	fmt.Printf("%s: %d samples, %s (seed %d, machine %d, hash %s)\n", path, len(xs), origin, h.Seed, h.Machine, h.SpecHash)
	fmt.Printf("  mean %.4f  std %.4f  min %.4f  median %.4f  max %.4f  skew %.2f\n",
		sum.Mean, sum.StdDev, sum.Min, sum.Median, sum.Max, sum.Skewness)
	fmt.Printf("  stochastic value: %s\n", sv)

	card := workload.NewScorecard(xs, h.DT)
	fmt.Printf("  scorecard: %d bursts below mean-2sigma", card.BurstCount)
	if card.TailIndex > 0 {
		fmt.Printf(", tail index %.2f (Hill; smaller = heavier)", card.TailIndex)
	} else {
		fmt.Printf(", tail index n/a")
	}
	if card.DiurnalPeriod > 0 {
		fmt.Printf(", dominant period %.0fs", card.DiurnalPeriod)
	} else {
		fmt.Printf(", no dominant period")
	}
	fmt.Println()

	mm, err := modal.FitBIC(xs, 6)
	if err != nil {
		return fmt.Errorf("modal fit: %w", err)
	}
	fmt.Printf("  modes (BIC): %d\n", mm.K())
	occ := mm.Occupancy(xs)
	for i, m := range mm.Modes {
		fmt.Printf("    mode %d: %-18s weight %.2f occupancy %.2f\n",
			i+1, m.Stochastic().String(), m.Weight, occ[i])
	}
	b, err := modal.AnalyzeBurstiness(mm, xs)
	if err != nil {
		return err
	}
	fmt.Printf("  burstiness: %d transitions (rate %.3f), mean dwell %.1f samples\n",
		b.Transitions, b.TransitionRate, b.MeanDwell)
	v, single, err := modal.StochasticValue(mm, xs)
	if err != nil {
		return err
	}
	branch := "multi-modal weighted combination"
	if single {
		branch = "single dominant mode"
	}
	fmt.Printf("  §2.1.2 stochastic value (%s): %s\n", branch, v)
	return nil
}
