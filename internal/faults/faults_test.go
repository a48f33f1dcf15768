package faults

import (
	"errors"
	"math"
	"testing"

	"prodpred/internal/cluster"
	"prodpred/internal/nws"
	"prodpred/internal/simenv"
)

func constSensor(v float64) nws.Sensor {
	return func(float64) (float64, error) { return v, nil }
}

func TestScheduleValidation(t *testing.T) {
	in := NewInjector(1)
	bad := []Schedule{
		{DropProb: -0.1},
		{DropProb: 1.5},
		{TransientProb: 2},
		{SpikeProb: math.NaN()},
		{SpikeFactor: 0.5, SpikeProb: 0.1},
		{SpikeFactor: -1},
		{Outages: []Window{{Start: 10, End: 10}}},
		{Outages: []Window{{Start: 20, End: 10}}},
	}
	for i, s := range bad {
		if err := in.Set(0, s); err == nil {
			t.Errorf("schedule %d (%+v) should fail validation", i, s)
		}
	}
	if err := in.Set(-1, Schedule{}); err == nil {
		t.Error("negative machine should fail")
	}
	if err := in.Set(0, Schedule{DropProb: 0.2, SpikeProb: 0.1, SpikeFactor: 3,
		Outages: []Window{{Start: 0, End: 5}}}); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

// scan samples the wrapped sensor at ticks 0,5,...,5*(n-1) and returns the
// observed (value, error-class) sequence as a comparable signature.
func scan(s nws.Sensor, n int) []float64 {
	sig := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		v, err := s(float64(i) * 5)
		code := 0.0
		switch {
		case err == nil:
		case errors.Is(err, nws.ErrSampleDropped):
			code = 1
		case errors.Is(err, nws.ErrOutage):
			code = 2
		case nws.IsTransient(err):
			code = 3
		default:
			code = 4
		}
		sig = append(sig, v, code)
	}
	return sig
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func(seed int64) nws.Sensor {
		in := NewInjector(seed)
		if err := in.Set(0, Schedule{DropProb: 0.2, TransientProb: 0.05,
			SpikeProb: 0.05, Outages: []Window{{Start: 500, End: 700}}}); err != nil {
			t.Fatal(err)
		}
		return in.Sensor(0, constSensor(0.5))
	}
	a := scan(mk(42), 1000)
	b := scan(mk(42), 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at position %d: %g vs %g", i, a[i], b[i])
		}
	}
	c := scan(mk(43), 1000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical fault patterns")
	}
}

func TestDecisionsAreOrderIndependent(t *testing.T) {
	in := NewInjector(7)
	if err := in.Set(0, Schedule{DropProb: 0.3}); err != nil {
		t.Fatal(err)
	}
	s := in.Sensor(0, constSensor(1))
	// Sample t=55 cold, then again after sampling other times: the decision
	// must be a pure function of t.
	_, err1 := s(55)
	for i := 0; i < 100; i++ {
		_, _ = s(float64(i))
	}
	_, err2 := s(55)
	if (err1 == nil) != (err2 == nil) {
		t.Errorf("decision at t=55 depends on call history: %v vs %v", err1, err2)
	}
}

func TestDropRateCalibration(t *testing.T) {
	in := NewInjector(9)
	if err := in.Set(0, Schedule{DropProb: 0.2}); err != nil {
		t.Fatal(err)
	}
	s := in.Sensor(0, constSensor(1))
	const n = 5000
	drops := 0
	for i := 0; i < n; i++ {
		if _, err := s(float64(i) * 5); errors.Is(err, nws.ErrSampleDropped) {
			drops++
		}
	}
	frac := float64(drops) / n
	if frac < 0.17 || frac > 0.23 {
		t.Errorf("drop rate %.3f far from configured 0.2", frac)
	}
	st := in.Stats(0)
	if st.Drops != drops {
		t.Errorf("Stats.Drops=%d want %d", st.Drops, drops)
	}
	if st.Total() != n {
		t.Errorf("Stats.Total=%d want %d", st.Total(), n)
	}
}

func TestOutageWindowExact(t *testing.T) {
	in := NewInjector(3)
	if err := in.Set(0, Schedule{Outages: []Window{{Start: 100, End: 200}}}); err != nil {
		t.Fatal(err)
	}
	s := in.Sensor(0, constSensor(1))
	for _, tc := range []struct {
		t    float64
		fail bool
	}{{95, false}, {100, true}, {150, true}, {195, true}, {200, false}, {205, false}} {
		_, err := s(tc.t)
		if got := errors.Is(err, nws.ErrOutage); got != tc.fail {
			t.Errorf("t=%g outage=%v want %v", tc.t, got, tc.fail)
		}
	}
	if st := in.Stats(0); st.OutageHits != 3 {
		t.Errorf("OutageHits=%d want 3", st.OutageHits)
	}
}

func TestSpikesScaleValue(t *testing.T) {
	in := NewInjector(5)
	if err := in.Set(0, Schedule{SpikeProb: 1, SpikeFactor: 4}); err != nil {
		t.Fatal(err)
	}
	s := in.Sensor(0, constSensor(0.5))
	up, down := 0, 0
	for i := 0; i < 200; i++ {
		v, err := s(float64(i) * 5)
		if err != nil {
			t.Fatalf("spike should not error: %v", err)
		}
		switch v {
		case 2.0:
			up++
		case 0.125:
			down++
		default:
			t.Fatalf("spiked value %g is neither 0.5*4 nor 0.5/4", v)
		}
	}
	if up == 0 || down == 0 {
		t.Errorf("spikes all one direction: up=%d down=%d", up, down)
	}
	if st := in.Stats(0); st.Spikes != 200 {
		t.Errorf("Spikes=%d want 200", st.Spikes)
	}
}

func TestTransientErrorsAreRetryable(t *testing.T) {
	in := NewInjector(6)
	if err := in.Set(0, Schedule{TransientProb: 1}); err != nil {
		t.Fatal(err)
	}
	s := in.Sensor(0, constSensor(1))
	_, err := s(10)
	if !nws.IsTransient(err) {
		t.Fatalf("want transient error, got %v", err)
	}
}

func TestUnscheduledMachinePassesThrough(t *testing.T) {
	in := NewInjector(8)
	s := in.Sensor(3, constSensor(0.7))
	for i := 0; i < 50; i++ {
		v, err := s(float64(i))
		if err != nil || v != 0.7 {
			t.Fatalf("passthrough broken: v=%g err=%v", v, err)
		}
	}
	if st := in.Stats(3); st.Clean != 50 {
		t.Errorf("Clean=%d want 50", st.Clean)
	}
}

func TestCPUSensorWrapsEnv(t *testing.T) {
	plat := cluster.Platform1()
	env, err := simenv.NewDedicated(plat)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(2)
	if err := in.Set(0, Schedule{DropProb: 0.5}); err != nil {
		t.Fatal(err)
	}
	s, err := in.CPUSensor(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	clean, dropped := 0, 0
	for i := 0; i < 400; i++ {
		v, err := s(float64(i) * 5)
		if err != nil {
			dropped++
		} else {
			clean++
			if v != 1 { // dedicated machine
				t.Fatalf("clean sample %g want 1", v)
			}
		}
	}
	if clean == 0 || dropped == 0 {
		t.Errorf("expected a mix of outcomes, got clean=%d dropped=%d", clean, dropped)
	}
	if _, err := in.CPUSensor(env, 99); err == nil {
		t.Error("bad machine should fail")
	}
	if _, err := in.CPUSensor(nil, 0); err == nil {
		t.Error("nil env should fail")
	}
}
