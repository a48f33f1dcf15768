package nws

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// faultySine is a deterministic sensor with drops and transient errors
// sprinkled in, so the exported state carries non-trivial gap counters and
// staleness.
func faultySine(t float64) (float64, error) {
	k := int(t) // period 5 ticks land on integers
	switch {
	case k%35 == 0 && k > 0:
		return 0, ErrSampleDropped
	case k%55 == 0 && k > 0:
		return 0, Transient(ErrSampleDropped)
	}
	return 0.5 + 0.3*math.Sin(t/40), nil
}

func newStateMonitor(t *testing.T) *Monitor {
	t.Helper()
	m, err := NewSensorMonitor(faultySine, 5, 64)
	if err != nil {
		t.Fatalf("NewSensorMonitor: %v", err)
	}
	return m
}

// TestMonitorStateRoundTrip drives a monitor, exports its state into a
// fresh identically-configured monitor, then runs both forward and asserts
// their reports stay bit-identical — the property the snapshot/restore
// path depends on.
func TestMonitorStateRoundTrip(t *testing.T) {
	orig := newStateMonitor(t)
	if err := orig.RunUntil(500); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	st := orig.ExportState()

	restored := newStateMonitor(t)
	if err := restored.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	if got, want := restored.Gaps(), orig.Gaps(); got != want {
		t.Fatalf("gaps after import: got %+v want %+v", got, want)
	}
	if got, want := restored.Staleness(), orig.Staleness(); got != want {
		t.Fatalf("staleness after import: got %v want %v", got, want)
	}
	for _, horizon := range []float64{500, 640, 900} {
		a, errA := orig.Report(horizon)
		b, errB := restored.Report(horizon)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("report errors diverge at t=%g: %v vs %v", horizon, errA, errB)
		}
		if a != b {
			t.Fatalf("reports diverge at t=%g: %+v vs %+v", horizon, a, b)
		}
	}
	if got, want := restored.History(), orig.History(); !reflect.DeepEqual(got, want) {
		t.Fatalf("histories diverge: %v vs %v", got, want)
	}
	if got, want := restored.Gaps(), orig.Gaps(); got != want {
		t.Fatalf("gaps diverge after advancing: got %+v want %+v", got, want)
	}
}

// TestMonitorStateRoundTripMatchesUninterrupted asserts the export itself
// is faithful: an exported-and-reimported monitor equals one that never
// stopped, including the forecaster mix accumulators.
func TestMonitorStateRoundTripMatchesUninterrupted(t *testing.T) {
	orig := newStateMonitor(t)
	if err := orig.RunUntil(300); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	restored := newStateMonitor(t)
	if err := restored.ImportState(orig.ExportState()); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	st1, st2 := orig.ExportState(), restored.ExportState()
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("re-export diverges:\n%+v\nvs\n%+v", st1, st2)
	}
}

func TestMonitorImportStateValidates(t *testing.T) {
	m := newStateMonitor(t)
	if err := m.ImportState(MonitorState{Times: []float64{1}, Values: nil}); err == nil {
		t.Fatal("want error for mismatched history slices")
	}
	if err := m.ImportState(MonitorState{
		Times:  make([]float64, 65),
		Values: make([]float64, 65),
	}); err == nil {
		t.Fatal("want error for history exceeding ring capacity")
	}
	if err := m.ImportState(MonitorState{MixSqErr: []float64{1}, MixN: []int{1}}); err == nil {
		t.Fatal("want error for mismatched mix size")
	}
}

// TestMonitorImportStateRejectsUnrecordedHistory: a ring holds the last
// min(recorded, capacity) samples, and the battery's aggregate is rebuilt
// from exactly those — a history of any other length is refused, by name.
func TestMonitorImportStateRejectsUnrecordedHistory(t *testing.T) {
	orig := newStateMonitor(t)
	if err := orig.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	full := orig.ExportState()
	if len(full.Values) != 64 || full.Stats.Recorded() <= 64 {
		t.Fatalf("want a wrapped 64-sample ring, have %d samples of %d recorded", len(full.Values), full.Stats.Recorded())
	}
	short := full
	short.Times, short.Values = full.Times[1:], full.Values[1:]
	early := newStateMonitor(t)
	if err := early.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	unwrapped := early.ExportState()
	unwrapped.Stats.Clean++
	for _, st := range []MonitorState{short, unwrapped} {
		m := newStateMonitor(t)
		err := m.ImportState(st)
		if err == nil {
			t.Fatalf("accepted %d samples for %d recorded", len(st.Values), st.Stats.Recorded())
		}
		for _, n := range []int{len(st.Values), st.Stats.Recorded()} {
			if !strings.Contains(err.Error(), strconv.Itoa(n)) {
				t.Errorf("error %q does not name %d", err, n)
			}
		}
	}
	if err := newStateMonitor(t).ImportState(full); err != nil {
		t.Fatal(err)
	}
}
