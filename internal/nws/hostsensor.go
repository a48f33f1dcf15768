package nws

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"prodpred/internal/timeseries"
)

// HostMonitor samples this machine's real CPU availability — the sensor an
// actual NWS deployment would run. On Linux it reads /proc/loadavg and
// converts the 1-minute load average into an availability fraction the way
// the NWS CPU sensor does: avail = ncpu / (load + 1), clamped to [0, 1]
// (the share an additional runnable process would receive). Unlike
// Monitor, HostMonitor samples wall-clock time; it exists for live use and
// for the host-calibration experiments, not for the deterministic
// reproduction pipeline.
type HostMonitor struct {
	path string
	ncpu float64
	ring *timeseries.Ring
	mix  *Mix
}

// ErrHostSensorUnavailable reports that this platform exposes no readable
// load average.
var ErrHostSensorUnavailable = errors.New("nws: host load sensor unavailable on this platform")

// NewHostMonitor returns a monitor of the local machine's availability with
// the given bounded history size. It fails on platforms without
// /proc/loadavg.
func NewHostMonitor(histSize int) (*HostMonitor, error) {
	return newHostMonitor("/proc/loadavg", histSize)
}

func newHostMonitor(path string, histSize int) (*HostMonitor, error) {
	if runtime.GOOS != "linux" {
		return nil, ErrHostSensorUnavailable
	}
	if _, err := os.Stat(path); err != nil {
		return nil, ErrHostSensorUnavailable
	}
	ring, err := timeseries.NewRing(histSize)
	if err != nil {
		return nil, err
	}
	return &HostMonitor{
		path: path,
		ncpu: float64(runtime.NumCPU()),
		ring: ring,
		mix:  NewMix(nil),
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

// Sample takes one measurement now and scores the forecaster mix
// postmortem against it.
func (h *HostMonitor) Sample() (float64, error) {
	loadavg, err := readLoadAvg(h.path)
	if err != nil {
		return 0, err
	}
	avail := h.ncpu / (loadavg + 1)
	if avail > 1 {
		avail = 1
	}
	if hist := h.ring.View(); len(hist) > 0 {
		h.mix.Update(hist, avail)
	}
	h.ring.Push(float64(time.Now().UnixNano())/1e9, avail)
	return avail, nil
}

// Len returns the number of stored measurements.
func (h *HostMonitor) Len() int { return h.ring.Len() }

// Forecast reports the NWS prediction of the host's availability from the
// measurements taken so far.
func (h *HostMonitor) Forecast() (Forecast, error) {
	if h.ring.Len() == 0 {
		return Forecast{}, errors.New("nws: no measurements yet")
	}
	return h.mix.Forecast(h.ring.View())
}
