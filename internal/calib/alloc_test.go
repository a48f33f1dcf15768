package calib

import "testing"

// TestObserveAllocs: an Observe that carries a quantile grid allocates the
// record's two side-offset slices and, amortised, the window's regrowth; its
// ten quantiles (the scale, the shift, two sides of four levels) share the
// tracker's scratch. The residuals alternate between two values, so the
// regime's baseline is multi-modal and its mode-count checks fit nothing.
func TestObserveAllocs(t *testing.T) {
	tr := mustNew(t)
	id := uint64(0)
	observe := func() {
		id++
		d := 0.4
		if id%2 == 1 {
			d = -0.4
		}
		tr.Observe(distOutcome(id, 10, 10+d))
	}
	for i := 0; i < 2*Window; i++ {
		observe()
	}
	s, modes := tr.Snapshot(), tr.ExportState().BaseModes
	if s.WindowFill != Window || s.PITCount != Window || len(s.Drifts) != 0 || modes < 2 {
		t.Fatalf("warm-up left fill %d, %d grids, %d drifts, a %d-mode baseline: the run below would not measure a steady quantile observe", s.WindowFill, s.PITCount, len(s.Drifts), modes)
	}
	// distOutcome's own grid is one of them.
	if allocs := testing.AllocsPerRun(4*Window, observe); allocs > 1+4 {
		t.Errorf("a quantile-carrying observe allocates %v times, want at most 4 besides its input grid", allocs)
	}
}
