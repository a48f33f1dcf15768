package nws

import (
	"fmt"

	"prodpred/internal/timeseries"
)

// MonitorState is the complete dynamic state of a Monitor in portable form
// — everything RunUntil and the forecaster mix have accumulated that is not
// derivable from the constructor arguments alone. It exists for the
// snapshot/restore path (internal/predict): export from a live monitor,
// rebuild an identically configured monitor from its spec, import, and the
// restored monitor's future reports are bit-identical to the original's.
//
// Monitors are pure functions of virtual time, so replaying RunUntil from
// zero would reconstruct this state too — but at O(t/period) sensor reads
// per monitor. Serializing the state directly makes restore O(history).
type MonitorState struct {
	// NextT is the next scheduled sample time; Started mirrors the
	// first-RunUntil latch.
	NextT   float64
	Started bool
	// Stale and CurGap carry the staleness clock; Stats the per-fault-class
	// gap counters.
	Stale  float64
	CurGap int
	Stats  GapStats
	// Times and Values are the ring history, oldest first, parallel slices.
	Times  []float64
	Values []float64
	// MixSqErr and MixN are the forecaster mix's postmortem accumulators,
	// parallel to the battery order.
	MixSqErr []float64
	MixN     []int
	// Tournament is the distribution-forecaster tournament's state; zero on
	// a monitor without one. Importing a zero state into a tournament resets
	// it to the incumbent, and a monitor without a tournament drops whatever
	// it is handed — images written before bandwidth monitors lost theirs
	// carry one.
	Tournament TournamentState
}

// ExportState copies the monitor's full dynamic state. The monitor is not
// safe for concurrent use; callers serialize against RunUntil as usual.
func (m *Monitor) ExportState() MonitorState {
	st := MonitorState{
		NextT:    m.nextT,
		Started:  m.started,
		Stale:    m.stale,
		CurGap:   m.curGap,
		Stats:    m.stats,
		MixSqErr: append([]float64(nil), m.mix.sqErr...),
		MixN:     append([]int(nil), m.mix.n...),
	}
	if m.tour != nil {
		st.Tournament = m.tour.ExportState()
	}
	n := m.ring.Len()
	st.Times = make([]float64, n)
	st.Values = make([]float64, n)
	for i := 0; i < n; i++ {
		p := m.ring.At(i)
		st.Times[i] = p.T
		st.Values[i] = p.V
	}
	return st
}

// ImportState replaces the monitor's dynamic state with st. The monitor
// must have been built with the same battery and a ring at least as large
// as the exported history; the sensor and period come from the
// constructor, so a state imported into a differently configured monitor
// is rejected where detectable.
func (m *Monitor) ImportState(st MonitorState) error {
	if len(st.Times) != len(st.Values) {
		return fmt.Errorf("nws: state history slices differ: %d times vs %d values", len(st.Times), len(st.Values))
	}
	if len(st.Times) > m.ring.Cap() {
		return fmt.Errorf("nws: state history %d exceeds ring capacity %d", len(st.Times), m.ring.Cap())
	}
	// The ring keeps the last min(recorded, capacity) samples; the battery's
	// aggregate is rebuilt from them and the recorded count.
	if want := min(st.Stats.Recorded(), m.ring.Cap()); len(st.Times) != want {
		return fmt.Errorf("nws: state history %d does not match %d recorded samples in a ring of %d: want %d",
			len(st.Times), st.Stats.Recorded(), m.ring.Cap(), want)
	}
	if len(st.MixSqErr) != len(m.mix.forecasters) || len(st.MixN) != len(m.mix.forecasters) {
		return fmt.Errorf("nws: state mix size %d/%d does not match battery of %d",
			len(st.MixSqErr), len(st.MixN), len(m.mix.forecasters))
	}
	if m.tour != nil {
		if err := m.tour.ImportState(st.Tournament); err != nil {
			return err
		}
	}
	ring, err := timeseries.NewRing(m.ring.Cap())
	if err != nil {
		return err
	}
	for i := range st.Times {
		ring.Push(st.Times[i], st.Values[i])
	}
	m.ring = ring
	m.agg.rebuild(ring.View(), st.Stats.Recorded())
	m.swept = false
	copy(m.mix.sqErr, st.MixSqErr)
	copy(m.mix.n, st.MixN)
	m.nextT = st.NextT
	m.started = st.Started
	m.stale = st.Stale
	m.curGap = st.CurGap
	m.stats = st.Stats
	return nil
}
