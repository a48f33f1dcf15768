// Command nwsmon runs the Network Weather Service reimplementation against
// a simulated production machine and prints the forecast stream: the
// measured availability, the mixture-of-experts forecast, its error
// estimate, and the winning forecaster. The machine's load is one load
// entry in JSON, written as a fleet spec's cpu entries are (OPERATIONS.md,
// "Fleet mode"), run on -seed unless it names its own.
//
// Sensor faults can be injected to demonstrate the gap-aware monitor:
// dropped samples, outlier spikes, transient errors, and timed outage
// windows are skipped, retried, or degraded through — never fatal — and a
// per-fault-class summary is printed at the end.
//
// Usage:
//
//	nwsmon -load '{"kind":"platform2-bursty"}' -duration 600 -period 5 -seed 1
//	nwsmon -load '{"kind":"platform1-center"}' -drop 0.2 -outage 300:420 -spike 0.05 -faultseed 7
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"prodpred/internal/cluster"
	"prodpred/internal/faults"
	"prodpred/internal/load"
	"prodpred/internal/nws"
	"prodpred/internal/simenv"
	"prodpred/internal/stochastic"
	"prodpred/internal/workload"
)

func main() {
	var (
		loadJSON  = flag.String("load", `{"kind":"platform2-bursty"}`, "the machine's load, one fleet-spec load entry in JSON")
		duration  = flag.Float64("duration", 600, "virtual seconds to monitor")
		period    = flag.Float64("period", nws.DefaultPeriod, "sensor period (s)")
		seed      = flag.Int64("seed", 1, "random seed")
		drop      = flag.Float64("drop", 0, "per-sample probability of a dropped measurement")
		spike     = flag.Float64("spike", 0, "per-sample probability of an outlier spike")
		spikeFac  = flag.Float64("spikefactor", faults.DefaultSpikeFactor, "outlier magnitude (x and /)")
		transient = flag.Float64("transient", 0, "per-sample probability of a transient (retryable) error")
		outage    = flag.String("outage", "", "comma-separated outage windows start:end, e.g. 300:420")
		faultSeed = flag.Int64("faultseed", 1, "seed for the fault injector")
	)
	flag.Parse()
	windows, err := parseOutages(*outage)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nwsmon:", err)
		os.Exit(1)
	}
	spec, err := parseLoad(*loadJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nwsmon: -load:", err)
		os.Exit(1)
	}
	cfg := runConfig{
		load:     spec,
		duration: *duration,
		period:   *period,
		seed:     *seed,
		schedule: faults.Schedule{
			DropProb:      *drop,
			SpikeProb:     *spike,
			SpikeFactor:   *spikeFac,
			TransientProb: *transient,
			Outages:       windows,
		},
		faultSeed: *faultSeed,
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "nwsmon:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	load      workload.LoadSpec
	duration  float64
	period    float64
	seed      int64
	schedule  faults.Schedule
	faultSeed int64
}

func (c runConfig) faulty() bool {
	s := c.schedule
	return s.DropProb > 0 || s.SpikeProb > 0 || s.TransientProb > 0 || len(s.Outages) > 0
}

// parseOutages parses "start:end[,start:end...]" into windows.
func parseOutages(s string) ([]faults.Window, error) {
	if s == "" {
		return nil, nil
	}
	var out []faults.Window
	for _, part := range strings.Split(s, ",") {
		lo, hi, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("outage window %q is not start:end", part)
		}
		start, err := strconv.ParseFloat(lo, 64)
		if err != nil {
			return nil, fmt.Errorf("outage start %q: %v", lo, err)
		}
		end, err := strconv.ParseFloat(hi, 64)
		if err != nil {
			return nil, fmt.Errorf("outage end %q: %v", hi, err)
		}
		out = append(out, faults.Window{Start: start, End: end})
	}
	return out, nil
}

// parseLoad decodes one load entry as spec files are decoded: a key
// LoadSpec does not declare, or anything after the value, is an error.
func parseLoad(s string) (workload.LoadSpec, error) {
	var spec workload.LoadSpec
	dec := json.NewDecoder(strings.NewReader(s))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	if strings.TrimLeft(s[dec.InputOffset():], " \t\n\r") != "" {
		return spec, fmt.Errorf("data after the load entry")
	}
	return spec, nil
}

func run(w *os.File, cfg runConfig) error {
	proc, err := cfg.load.Build(cfg.seed, false)
	if err != nil {
		return err
	}
	plat := cluster.Platform1()
	cpu := make([]load.Process, plat.Size())
	cpu[0] = proc
	for i := 1; i < plat.Size(); i++ {
		cpu[i] = load.Dedicated()
	}
	env, err := simenv.New(plat, cpu, load.Dedicated())
	if err != nil {
		return err
	}
	sensor, err := nws.CPUSensor(env, 0)
	if err != nil {
		return err
	}
	var inj *faults.Injector
	if cfg.faulty() {
		inj = faults.NewInjector(cfg.faultSeed)
		if err := inj.Set(0, cfg.schedule); err != nil {
			return err
		}
		sensor = inj.Sensor(0, sensor)
	}
	mon, err := nws.NewSensorMonitor(sensor, cfg.period, 512)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "NWS CPU monitor: %s load, period %.0fs", cfg.load.Kind, cfg.period)
	if inj != nil {
		fmt.Fprintf(w, " (faults: drop %.0f%%, spike %.0f%%, transient %.0f%%, %d outage windows)",
			cfg.schedule.DropProb*100, cfg.schedule.SpikeProb*100,
			cfg.schedule.TransientProb*100, len(cfg.schedule.Outages))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s %-10s %-14s %-10s %s\n", "t", "measured", "forecast", "±2·RMSE", "best forecaster")
	prior := stochastic.New(0.5, 0.5)
	// Integer step index, not t += period: float accumulation on
	// non-representable periods (0.1, ...) skips or duplicates the final
	// sample on long runs.
	steps := int(math.Floor(cfg.duration/cfg.period + 1e-9))
	var prevGaps nws.GapStats
	for i := 0; i <= steps; i++ {
		t := float64(i) * cfg.period
		if err := mon.RunUntil(t); err != nil {
			return err
		}
		gaps := mon.Gaps()
		measured := "-"
		if gaps.Missed == prevGaps.Missed {
			if last, ok := mon.Last(); ok {
				measured = fmt.Sprintf("%.3f", last.V)
			}
		} else {
			measured = "(" + missClass(prevGaps, gaps) + ")"
		}
		prevGaps = gaps
		sv := mon.RobustReport(t, prior)
		best := "(degraded)"
		if f, err := mon.Forecast(); err == nil && mon.Staleness() <= 8 {
			best = f.Best
		}
		fmt.Fprintf(w, "%-8.0f %-10s %-14.3f %-10.3f %s\n", t, measured, sv.Mean, sv.Spread, best)
	}

	fmt.Fprintln(w, "\nFinal forecaster scoreboard (postmortem RMSE):")
	rmses := mon.Mix().RMSEs()
	names := make([]string, 0, len(rmses))
	for name := range rmses {
		names = append(names, name)
	}
	sort.Strings(names) // map order would shuffle the scoreboard run-to-run
	for _, name := range names {
		fmt.Fprintf(w, "  %-14s %.4f\n", name, rmses[name])
	}

	g := mon.Gaps()
	fmt.Fprintf(w, "\nSensor health: %d/%d samples recorded (%d clean, %d recovered by retry)\n",
		g.Recorded(), g.Scheduled(), g.Clean, g.Recovered)
	fmt.Fprintf(w, "  dropped %d | outage %d | transient-lost %d | sensor errors %d | retries %d | longest gap %d samples\n",
		g.Dropped, g.Outage, g.TransientLost, g.SensorErrors, g.Retries, g.LongestGap)
	if inj != nil {
		st := inj.Stats(0)
		fmt.Fprintf(w, "Injected faults: %d drops, %d spikes, %d transients, %d outage hits (%d calls clean)\n",
			st.Drops, st.Spikes, st.Transients, st.OutageHits, st.Clean)
	}
	fmt.Fprintf(w, "Final staleness: %.0f periods (degradation factor %.2f)\n",
		mon.Staleness(), mon.DegradationFactor())
	return nil
}

// missClass names the fault class of the sample missed since the previous
// tick, for the stream display.
func missClass(prev, cur nws.GapStats) string {
	switch {
	case cur.Dropped > prev.Dropped:
		return "dropped"
	case cur.Outage > prev.Outage:
		return "outage"
	case cur.TransientLost > prev.TransientLost:
		return "transient"
	default:
		return "error"
	}
}
