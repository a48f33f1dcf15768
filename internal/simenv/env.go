// Package simenv simulates a production distributed system in virtual time.
//
// An Env binds a cluster.Platform to per-machine CPU-availability processes
// and a network-contention process, and answers the two questions the
// distributed SOR execution needs:
//
//   - how long does a given amount of compute take on machine m starting at
//     virtual time t (WorkDuration), and
//   - how long does a message of b bytes take between machines i and j
//     starting at t (TransferDuration).
//
// Both integrate effective capacity over the piecewise-constant availability
// segments of the underlying load processes, so durations respond to load
// changes *during* the operation — the mechanism behind the paper's
// observation that production runtimes wander as load shifts between modes.
// Nothing sleeps: an experiment that spans hours of virtual time costs
// milliseconds of wall-clock time.
package simenv

import (
	"errors"
	"fmt"
	"math"

	"prodpred/internal/cluster"
	"prodpred/internal/load"
)

// minAvail floors effective availability: even on a thrashing production
// machine the application receives some CPU share, and a zero floor would
// make work durations unbounded.
const minAvail = 0.01

// Env is a simulated production environment.
type Env struct {
	platform *cluster.Platform
	cpu      []load.Process
	net      load.Process // shared-ethernet contention (one process)
}

// New binds platform to one CPU process per machine and a shared network
// contention process. Pass load.Dedicated() processes for an unloaded
// system.
func New(platform *cluster.Platform, cpu []load.Process, net load.Process) (*Env, error) {
	if platform == nil {
		return nil, errors.New("simenv: nil platform")
	}
	if len(cpu) != platform.Size() {
		return nil, fmt.Errorf("simenv: %d cpu processes for %d machines", len(cpu), platform.Size())
	}
	for i, p := range cpu {
		if p == nil {
			return nil, fmt.Errorf("simenv: nil cpu process for machine %d", i)
		}
	}
	if net == nil {
		return nil, errors.New("simenv: nil network process")
	}
	return &Env{platform: platform, cpu: append([]load.Process(nil), cpu...), net: net}, nil
}

// NewDedicated returns an Env for the platform with no competing load:
// full CPU availability everywhere and uncontended network.
func NewDedicated(platform *cluster.Platform) (*Env, error) {
	cpu := make([]load.Process, platform.Size())
	for i := range cpu {
		cpu[i] = load.Dedicated()
	}
	return New(platform, cpu, load.Dedicated())
}

// Platform returns the underlying platform.
func (e *Env) Platform() *cluster.Platform { return e.platform }

// Hold holds every load process of the environment at t (load.Hold): the
// clock that drives its readers is at t.
func (e *Env) Hold(t float64) {
	for _, p := range e.cpu {
		load.Hold(p, t)
	}
	load.Hold(e.net, t)
}

// CPULoad returns machine m's underlying load process — the trace
// recorder samples it directly so a recording is exactly what the sensors
// saw, unfloored.
func (e *Env) CPULoad(m int) load.Process { return e.cpu[m] }

// NetLoad returns the shared network-contention process.
func (e *Env) NetLoad() load.Process { return e.net }

// CPUAvail returns the CPU fraction available to the application on
// machine m at time t, floored at minAvail.
func (e *Env) CPUAvail(m int, t float64) float64 {
	return math.Max(e.cpu[m].At(t), minAvail)
}

// RawCPUAvail returns the unfloored sensor-visible availability — what an
// NWS CPU sensor would measure.
func (e *Env) RawCPUAvail(m int, t float64) float64 {
	return e.cpu[m].At(t)
}

// BWAvail returns the fraction of dedicated bandwidth available between
// machines i and j at time t, floored at minAvail.
func (e *Env) BWAvail(i, j int, t float64) float64 {
	_ = i
	_ = j // shared ethernet: contention is global
	return math.Max(e.net.At(t), minAvail)
}

// WorkDuration returns how long machine m takes to perform `elems` element
// updates starting at time start, integrating rate = ElemRate * avail(t)
// across availability segments.
func (e *Env) WorkDuration(m int, elems, start float64) (float64, error) {
	if elems < 0 {
		return 0, errors.New("simenv: negative work")
	}
	if m < 0 || m >= e.platform.Size() {
		return 0, fmt.Errorf("simenv: machine %d out of range", m)
	}
	base := e.platform.Machine(m).ElemRate
	return integrate(start, elems, e.cpu[m].Interval(), func(t float64) float64 {
		return base * e.CPUAvail(m, t)
	})
}

// TransferDuration returns how long a b-byte message from machine i to j
// takes starting at time start: link latency plus the bytes integrated over
// available bandwidth.
func (e *Env) TransferDuration(i, j int, bytes, start float64) (float64, error) {
	if bytes < 0 {
		return 0, errors.New("simenv: negative message size")
	}
	link, err := e.platform.Link(i, j)
	if err != nil {
		return 0, err
	}
	dur, err := integrate(start+link.Latency, bytes, e.net.Interval(), func(t float64) float64 {
		return link.DedBW * e.BWAvail(i, j, t)
	})
	if err != nil {
		return 0, err
	}
	return link.Latency + dur, nil
}

// integrate advances from start until `amount` units are completed at the
// piecewise-constant rate rate(t), with segments of length dt aligned to
// multiples of dt, and returns the elapsed time.
func integrate(start, amount, dt float64, rate func(float64) float64) (float64, error) {
	if !(dt > 0) {
		return 0, errors.New("simenv: non-positive process interval")
	}
	if amount == 0 {
		return 0, nil
	}
	t := start
	remaining := amount
	const maxSegments = 100_000_000 // unbounded-loop guard; ~3 virtual years at dt=1
	for seg := 0; seg < maxSegments; seg++ {
		r := rate(t)
		if r <= 0 {
			return 0, errors.New("simenv: non-positive rate")
		}
		// End of the current availability segment.
		segEnd := (math.Floor(t/dt) + 1) * dt
		if segEnd <= t { // float round-off at large t
			segEnd = t + dt
		}
		span := segEnd - t
		capacity := r * span
		if capacity >= remaining {
			return t + remaining/r - start, nil
		}
		remaining -= capacity
		t = segEnd
	}
	return 0, errors.New("simenv: work did not complete (rate too low)")
}
