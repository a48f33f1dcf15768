package calib

import "testing"

// TestObserveAllocs: an Observe that carries a quantile grid and falls
// outside a mode-count check allocates the record's two side-offset slices
// and, amortised, the window's regrowth; its ten quantiles (the scale, the
// shift, two sides of four levels) share the tracker's scratch.
func TestObserveAllocs(t *testing.T) {
	tr, err := New(Config{ModeCheckEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(0)
	observe := func() {
		id++
		d := 0.4
		if id%2 == 1 {
			d = -0.4
		}
		tr.Observe(distOutcome(id, 10, 10+d))
	}
	for i := 0; i < 2*DefaultWindow; i++ {
		observe()
	}
	if s := tr.Snapshot(); s.WindowFill != DefaultWindow || s.PITCount != DefaultWindow || len(s.Drifts) != 0 {
		t.Fatalf("warm-up left fill %d, %d grids, %d drifts: the run below would not measure a steady quantile observe", s.WindowFill, s.PITCount, len(s.Drifts))
	}
	// distOutcome's own grid is one of them.
	if allocs := testing.AllocsPerRun(4*DefaultWindow, observe); allocs > 1+4 {
		t.Errorf("a quantile-carrying observe allocates %v times, want at most 4 besides its input grid", allocs)
	}
}
