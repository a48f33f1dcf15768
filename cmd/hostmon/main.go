// Command hostmon runs the NWS reimplementation against THIS machine: it
// samples the real 1-minute load average at a fixed cadence, converts it
// to an availability fraction, and prints the mixture-of-experts forecast
// stream — a live miniature of the monitoring the paper's experiments
// depended on. Linux only (reads /proc/loadavg).
//
// Usage:
//
//	hostmon -samples 30 -period 1s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"prodpred/internal/nws"
)

func main() {
	var (
		samples = flag.Int("samples", 30, "number of measurements to take")
		period  = flag.Duration("period", time.Second, "sampling period")
	)
	flag.Parse()
	if err := run(*samples, *period); err != nil {
		fmt.Fprintln(os.Stderr, "hostmon:", err)
		os.Exit(1)
	}
}

func run(samples int, period time.Duration) error {
	sensor, err := nws.HostSensor()
	if err != nil {
		return err
	}
	// One monitor tick per sample: virtual second i is the i-th reading.
	mon, err := nws.NewSensorMonitor(sensor, 1, 512)
	if err != nil {
		return err
	}
	fmt.Printf("Monitoring this host's CPU availability (%d samples, every %v)\n", samples, period)
	fmt.Printf("%-6s %-12s %-14s %-12s %s\n", "#", "availability", "forecast", "±2·RMSE", "best forecaster")
	for i := 0; i < samples; i++ {
		missed := mon.Gaps().Missed
		_ = mon.RunUntil(float64(i))
		if mon.Gaps().Missed > missed {
			// A failed read is a gap, not a fatal condition: the monitor
			// skips the tick and keeps forecasting from the surviving history.
			fmt.Printf("%-6d %-12s (sensor error)\n", i, "-")
		} else {
			v, _ := mon.Last()
			f, ferr := mon.Forecast()
			if ferr != nil {
				fmt.Printf("%-6d %-12.3f %s\n", i, v.V, "(warming up)")
			} else {
				sv := f.Stochastic()
				fmt.Printf("%-6d %-12.3f %-14.3f %-12.3f %s\n", i, v.V, f.Value, sv.Spread, f.Best)
			}
		}
		if i < samples-1 {
			time.Sleep(period)
		}
	}
	if g := mon.Gaps(); g.Missed > 0 {
		fmt.Printf("\nSensor health: %d/%d samples recorded, %d missed\n", g.Recorded(), samples, g.Missed)
	}
	f, err := mon.Forecast()
	if err != nil {
		return fmt.Errorf("no sample ever succeeded: %w", err)
	}
	fmt.Printf("\nFinal stochastic availability value for this host: %s\n", f.Stochastic())
	return nil
}
