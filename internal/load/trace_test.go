package load

import (
	"strings"
	"testing"

	"prodpred/internal/timeseries"
)

// TestUniformTraceBoundaries pins the replay-critical LOCF edges: times
// before the first sample carry the first value backward, times past the
// last sample carry the last value forward, and grid points return the
// exact recorded sample.
func TestUniformTraceBoundaries(t *testing.T) {
	s, err := timeseries.FromSlices(
		[]float64{100, 101, 102, 103},
		[]float64{0.25, 0.5, 0.75, 0.625})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewUniformTrace(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.At(0); got != 0.25 {
		t.Errorf("before first sample: At(0)=%g, want first value 0.25", got)
	}
	if got := tr.At(99.999); got != 0.25 {
		t.Errorf("just before first sample: At(99.999)=%g, want 0.25", got)
	}
	for i := 0; i < s.Len(); i++ {
		if got := tr.At(s.At(i).T); got != s.At(i).V {
			t.Errorf("grid point %d: At(%g)=%g, want exact sample %g", i, s.At(i).T, got, s.At(i).V)
		}
	}
	if got := tr.At(102.5); got != 0.75 {
		t.Errorf("mid-tick: At(102.5)=%g, want LOCF 0.75", got)
	}
	if got := tr.At(1e6); got != 0.625 {
		t.Errorf("past end: At(1e6)=%g, want last value 0.625", got)
	}
}

// TestUniformTraceRejectsNonUniform: any sample off the dt grid fails
// construction, with the offending sample named, instead of silently
// replaying shifted values.
func TestUniformTraceRejectsNonUniform(t *testing.T) {
	s, err := timeseries.FromSlices([]float64{0, 1, 2.5, 3}, []float64{0.1, 0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewUniformTrace(s, 1)
	if err == nil {
		t.Fatal("non-uniform series accepted")
	}
	if !strings.Contains(err.Error(), "sample 2") {
		t.Errorf("error %q does not name the offending sample", err)
	}
	// Wrong dt for an otherwise-uniform grid is the same failure.
	u, err := timeseries.FromSlices([]float64{0, 1, 2, 3}, []float64{0.1, 0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewUniformTrace(u, 2); err == nil {
		t.Error("uniform grid accepted under the wrong dt")
	}
	// Float round-off within the relative tolerance is not a rejection:
	// 0.1 steps are non-representable but still a uniform grid.
	ts := make([]float64, 1000)
	vs := make([]float64, 1000)
	for i := range ts {
		ts[i] = float64(i) * 0.1
		vs[i] = 0.5
	}
	f, err := timeseries.FromSlices(ts, vs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewUniformTrace(f, 0.1); err != nil {
		t.Errorf("0.1-step grid rejected: %v", err)
	}
	if _, err := NewUniformTrace(nil, 1); err == nil {
		t.Error("nil series accepted")
	}
}

// TestLongTailedDeterminism pins the same-seed contract for the
// heavy-tailed generators the workload scenarios compose: two processes
// built with identical parameters and seed must agree bit-for-bit at
// every tick (including out-of-order access), and a different seed must
// diverge.
func TestLongTailedDeterminism(t *testing.T) {
	build := map[string]func(seed int64) (Process, error){
		"long-tailed": func(seed int64) (Process, error) {
			return NewLongTailed(0.9, 0.4, 0.2, 1, seed)
		},
		"congested": func(seed int64) (Process, error) {
			return NewCongested(0.85, 0.1, 0.05, 0.08, 0.5, 0.15, 1, seed)
		},
		"ethernet-contention": func(seed int64) (Process, error) {
			return EthernetContention(seed)
		},
	}
	times := []float64{0, 500, 3, 127, 1000, 64, 2.5} // deliberately out of order
	for name, mk := range build {
		a, err := mk(42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := mk(42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tt := range times {
			if av, bv := a.At(tt), b.At(tt); av != bv {
				t.Errorf("%s: same seed diverged at t=%g: %g vs %g", name, tt, av, bv)
			}
		}
		// Sequential pass must bit-match too (the cache's generation order).
		for tt := 0.0; tt < 200; tt++ {
			if av, bv := a.At(tt), b.At(tt); av != bv {
				t.Fatalf("%s: sequential divergence at t=%g", name, tt)
			}
		}
		c, err := mk(43)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same := true
		for tt := 0.0; tt < 200; tt++ {
			if a.At(tt) != c.At(tt) {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical paths", name)
		}
	}
}
