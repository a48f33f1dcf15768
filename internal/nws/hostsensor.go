package nws

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// ErrHostSensorUnavailable reports that this platform exposes no readable
// load average.
var ErrHostSensorUnavailable = errors.New("nws: host load sensor unavailable on this platform")

// HostSensor returns the sensor of this machine's real CPU availability —
// the one an actual NWS deployment would run. On Linux it reads
// /proc/loadavg and converts the 1-minute load average into an availability
// fraction the way the NWS CPU sensor does: avail = ncpu / (load + 1),
// clamped to 1 (the share an additional runnable process would receive).
// It reads the host now, whatever virtual time a Monitor asks for, so it
// is for live use (cmd/hostmon), not the deterministic reproduction
// pipeline. It fails on platforms without /proc/loadavg.
func HostSensor() (Sensor, error) { return hostSensor("/proc/loadavg") }

func hostSensor(path string) (Sensor, error) {
	if runtime.GOOS != "linux" {
		return nil, ErrHostSensorUnavailable
	}
	if _, err := os.Stat(path); err != nil {
		return nil, ErrHostSensorUnavailable
	}
	ncpu := float64(runtime.NumCPU())
	return func(float64) (float64, error) {
		load, err := readLoadAvg(path)
		if err != nil {
			return 0, err
		}
		return math.Min(ncpu/(load+1), 1), nil
	}, nil
}

// readLoadAvg parses the 1-minute load average from a /proc/loadavg-format
// line.
func readLoadAvg(path string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 1 {
		return 0, fmt.Errorf("nws: malformed loadavg %q", string(raw))
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0, fmt.Errorf("nws: malformed loadavg %q: %v", fields[0], err)
	}
	if v < 0 {
		return 0, fmt.Errorf("nws: negative loadavg %g", v)
	}
	return v, nil
}
