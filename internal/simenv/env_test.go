package simenv

import (
	"math"
	"testing"

	"prodpred/internal/cluster"
	"prodpred/internal/load"
	"prodpred/internal/stats"
)

func dedicatedEnv(t *testing.T) *Env {
	t.Helper()
	e, err := NewDedicated(cluster.Platform1())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	p := cluster.Platform1()
	ded := load.Dedicated()
	if _, err := New(nil, nil, ded); err == nil {
		t.Error("nil platform should fail")
	}
	if _, err := New(p, []load.Process{ded}, ded); err == nil {
		t.Error("wrong cpu count should fail")
	}
	cpus := []load.Process{ded, ded, ded, nil}
	if _, err := New(p, cpus, ded); err == nil {
		t.Error("nil cpu process should fail")
	}
	cpus[3] = ded
	if _, err := New(p, cpus, nil); err == nil {
		t.Error("nil net process should fail")
	}
	e, err := New(p, cpus, ded)
	if err != nil || e.Platform() != p {
		t.Errorf("valid env failed: %v", err)
	}
}

func TestWorkDurationDedicated(t *testing.T) {
	e := dedicatedEnv(t)
	// sparc2-a: 0.5e6 elems/s. 1e6 elements -> exactly 2 s.
	d, err := e.WorkDuration(0, 1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-2) > 1e-9 {
		t.Errorf("duration=%g want 2", d)
	}
	// Time-invariant when dedicated.
	d2, _ := e.WorkDuration(0, 1e6, 12345.678)
	if math.Abs(d2-2) > 1e-9 {
		t.Errorf("duration at offset=%g want 2", d2)
	}
	// Faster machine takes proportionally less time.
	d3, _ := e.WorkDuration(3, 1e6, 0) // sparc10 = 3.5x
	if math.Abs(d3-2/3.5) > 1e-9 {
		t.Errorf("sparc10 duration=%g want %g", d3, 2/3.5)
	}
}

func TestWorkDurationEdgeCases(t *testing.T) {
	e := dedicatedEnv(t)
	if d, err := e.WorkDuration(0, 0, 5); err != nil || d != 0 {
		t.Errorf("zero work: %g, %v", d, err)
	}
	if _, err := e.WorkDuration(0, -1, 0); err == nil {
		t.Error("negative work should fail")
	}
	if _, err := e.WorkDuration(9, 1, 0); err == nil {
		t.Error("bad machine should fail")
	}
	if _, err := e.WorkDuration(-1, 1, 0); err == nil {
		t.Error("negative machine should fail")
	}
}

func TestWorkDurationUnderHalfLoad(t *testing.T) {
	p := cluster.Platform1()
	half := load.NewConstant(0.5)
	cpus := []load.Process{half, half, half, half}
	e, err := New(p, cpus, load.Dedicated())
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.WorkDuration(0, 1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Half availability doubles the dedicated 2 s.
	if math.Abs(d-4) > 1e-9 {
		t.Errorf("duration=%g want 4", d)
	}
}

func TestWorkDurationIntegratesAcrossLoadChange(t *testing.T) {
	// Availability 1.0 for t<10, then 0.25: a job needing 15 "seconds of
	// dedicated work" started at 0 finishes 10 + 5/0.25 = 30 s later.
	p := cluster.TwoMachineExample() // machine A: 0.1 units/s
	step := &stepProcess{switchAt: 10, before: 1.0, after: 0.25}
	e, err := New(p, []load.Process{step, load.Dedicated()}, load.Dedicated())
	if err != nil {
		t.Fatal(err)
	}
	// 1.5 units of work = 15 s dedicated on A.
	d, err := e.WorkDuration(0, 1.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-30) > 1e-9 {
		t.Errorf("duration=%g want 30", d)
	}
	// Started after the switch, it's all slow: 15/0.25 = 60.
	d2, _ := e.WorkDuration(0, 1.5, 20)
	if math.Abs(d2-60) > 1e-9 {
		t.Errorf("duration=%g want 60", d2)
	}
}

// stepProcess is a deterministic availability step for integration tests.
type stepProcess struct {
	switchAt      float64
	before, after float64
}

func (s *stepProcess) At(t float64) float64 {
	if t < s.switchAt {
		return s.before
	}
	return s.after
}
func (s *stepProcess) Interval() float64 { return 1 }

func TestCPUAvailFlooring(t *testing.T) {
	p := cluster.Platform1()
	zero := load.NewConstant(0)
	cpus := []load.Process{zero, zero, zero, zero}
	e, err := New(p, cpus, zero)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.CPUAvail(0, 5); got != minAvail {
		t.Errorf("floored avail=%g want %g", got, minAvail)
	}
	if got := e.RawCPUAvail(0, 5); got != 0 {
		t.Errorf("raw avail=%g want 0", got)
	}
	if got := e.BWAvail(0, 1, 5); got != minAvail {
		t.Errorf("floored bw=%g", got)
	}
	// Work still completes thanks to the floor.
	d, err := e.WorkDuration(0, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1000 / (0.5e6 * minAvail)
	if math.Abs(d-want) > 1e-9 {
		t.Errorf("floored duration=%g want %g", d, want)
	}
}

func TestTransferDurationDedicated(t *testing.T) {
	e := dedicatedEnv(t)
	// 1.25 MB over 1.25 MB/s + 1 ms latency = 1.001 s.
	d, err := e.TransferDuration(0, 1, 1.25e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1.001) > 1e-9 {
		t.Errorf("duration=%g want 1.001", d)
	}
	// Zero-byte message costs only latency.
	d0, _ := e.TransferDuration(0, 1, 0, 0)
	if math.Abs(d0-1e-3) > 1e-12 {
		t.Errorf("empty message=%g want 0.001", d0)
	}
	if _, err := e.TransferDuration(0, 0, 10, 0); err == nil {
		t.Error("self transfer should fail")
	}
	if _, err := e.TransferDuration(0, 1, -1, 0); err == nil {
		t.Error("negative bytes should fail")
	}
}

func TestTransferSlowsUnderContention(t *testing.T) {
	p := cluster.Platform1()
	ded := load.Dedicated()
	cpus := []load.Process{ded, ded, ded, ded}
	congested, err := New(p, cpus, load.NewConstant(0.5))
	if err != nil {
		t.Fatal(err)
	}
	clean := dedicatedEnv(t)
	dc, _ := clean.TransferDuration(0, 1, 1e6, 0)
	dg, _ := congested.TransferDuration(0, 1, 1e6, 0)
	if dg <= dc*1.9 {
		t.Errorf("congested %g should be ~2x clean %g", dg, dc)
	}
}

// TestMeasureCPU: what an NWS CPU sensor reads of a center-mode load every
// 5 s over 5000 s averages the mode's ~0.48.
func TestMeasureCPU(t *testing.T) {
	p := cluster.Platform1()
	proc, err := load.Platform1CenterMode(31)
	if err != nil {
		t.Fatal(err)
	}
	ded := load.Dedicated()
	e, err := New(p, []load.Process{proc, ded, ded, ded}, ded)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 0, 1001)
	for i := 0; i <= 1000; i++ {
		xs = append(xs, e.RawCPUAvail(0, 5*float64(i)))
	}
	if m := stats.Mean(xs); math.Abs(m-0.48) > 0.02 {
		t.Errorf("measured mean=%g want ~0.48", m)
	}
}

// TestMeasureBandwidthLongTailed: the bandwidth a probe achieves on a
// contended link, sampled every second over 20000 s, is left-tailed like
// Figure 3's.
func TestMeasureBandwidthLongTailed(t *testing.T) {
	p := cluster.Platform1()
	ded := load.Dedicated()
	contention, err := load.EthernetContention(37)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(p, []load.Process{ded, ded, ded, ded}, contention)
	if err != nil {
		t.Fatal(err)
	}
	// Short probes so each sample sees one availability segment.
	const probe = 12500
	mbit := make([]float64, 0, 20001)
	for k := 0; k <= 20000; k++ {
		dur, err := e.TransferDuration(0, 1, probe, float64(k))
		if err != nil {
			t.Fatal(err)
		}
		mbit = append(mbit, probe/dur*8/1e6)
	}
	// Mean achieved bandwidth ~0.525 * 1.25e6 B/s = 5.25 Mbit/s; the probe
	// latency drags it down slightly.
	m := stats.Mean(mbit)
	if m < 4.5 || m > 5.5 {
		t.Errorf("mean bandwidth=%g Mbit/s want ~5.2", m)
	}
	// Left-tailed like Figure 3.
	med, _ := stats.Median(mbit)
	if med <= m {
		t.Errorf("median %g should exceed mean %g", med, m)
	}
}

func TestWorkDurationDeterminism(t *testing.T) {
	p := cluster.Platform1()
	mk := func() *Env {
		proc, _ := load.Platform2FourModeBursty(77)
		ded := load.Dedicated()
		e, _ := New(p, []load.Process{proc, ded, ded, ded}, ded)
		return e
	}
	a, b := mk(), mk()
	for _, start := range []float64{0, 100, 333.3} {
		da, err := a.WorkDuration(0, 3e6, start)
		if err != nil {
			t.Fatal(err)
		}
		db, _ := b.WorkDuration(0, 3e6, start)
		if da != db {
			t.Fatalf("nondeterministic at start=%g: %g vs %g", start, da, db)
		}
	}
}
