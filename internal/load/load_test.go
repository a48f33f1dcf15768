package load

import (
	"math"
	"testing"

	"prodpred/internal/stats"
	"prodpred/internal/timeseries"
)

func TestConstant(t *testing.T) {
	c := NewConstant(0.5)
	if c.At(0) != 0.5 || c.At(1e6) != 0.5 {
		t.Error("constant not constant")
	}
	if c.Interval() <= 0 {
		t.Error("interval must be positive")
	}
	if NewConstant(-1).Level != 0 || NewConstant(2).Level != 1 {
		t.Error("constant should clamp to [0,1]")
	}
	if Dedicated().At(0) != 1 {
		t.Error("dedicated should be full availability")
	}
}

func TestSingleModeValidation(t *testing.T) {
	cases := []struct{ mean, sigma, phi, dt float64 }{
		{-0.1, 0.1, 0.5, 1}, {1.1, 0.1, 0.5, 1},
		{0.5, 0, 0.5, 1}, {0.5, -1, 0.5, 1},
		{0.5, 0.1, -0.1, 1}, {0.5, 0.1, 1, 1},
		{0.5, 0.1, 0.5, 0},
	}
	for _, c := range cases {
		if _, err := NewSingleMode(c.mean, c.sigma, c.phi, c.dt, 1); err == nil {
			t.Errorf("NewSingleMode(%v) should fail", c)
		}
	}
}

func TestSingleModeStatistics(t *testing.T) {
	p, err := NewSingleMode(0.48, 0.025, 0.9, 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Record(p, 0, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	xs := s.Values()
	if m := stats.Mean(xs); math.Abs(m-0.48) > 0.01 {
		t.Errorf("mean=%g want ~0.48", m)
	}
	if sd := stats.StdDev(xs); math.Abs(sd-0.025) > 0.005 {
		t.Errorf("std=%g want ~0.025", sd)
	}
	for _, x := range xs {
		if x < 0 || x > 1 {
			t.Fatalf("value %g outside [0,1]", x)
		}
	}
	// AR(1) with phi=0.9 must be strongly autocorrelated.
	if ac, err := stats.PearsonCorrelation(xs[:len(xs)-1], xs[1:]); err != nil || ac < 0.7 {
		t.Errorf("lag-1 autocorr=%g (%v) want >0.7", ac, err)
	}
}

func TestProcessDeterminism(t *testing.T) {
	a, _ := NewSingleMode(0.5, 0.05, 0.8, 1, 7)
	b, _ := NewSingleMode(0.5, 0.05, 0.8, 1, 7)
	for _, tt := range []float64{0, 3.5, 10, 2, 100} { // deliberately out of order
		if a.At(tt) != b.At(tt) {
			t.Fatalf("same seed diverged at t=%g", tt)
		}
	}
	c, _ := NewSingleMode(0.5, 0.05, 0.8, 1, 8)
	same := true
	for tt := 0.0; tt < 50; tt++ {
		if a.At(tt) != c.At(tt) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestPiecewiseConstantWithinTick(t *testing.T) {
	p, _ := NewSingleMode(0.5, 0.05, 0.8, 2.0, 9)
	if p.At(4.0) != p.At(5.9) {
		t.Error("values within one tick should be identical")
	}
	if p.Interval() != 2.0 {
		t.Errorf("Interval=%g", p.Interval())
	}
	if p.At(-5) != p.At(0) {
		t.Error("negative times should clamp to t=0")
	}
}

func TestMarkovModalValidation(t *testing.T) {
	good := []ModeSpec{{Mean: 0.3, Sigma: 0.02}, {Mean: 0.9, Sigma: 0.02}}
	w := []float64{1, 1}
	if _, err := NewMarkovModal(nil, nil, 0.1, 0.5, 1, 1); err == nil {
		t.Error("no modes should fail")
	}
	if _, err := NewMarkovModal(good, []float64{1}, 0.1, 0.5, 1, 1); err == nil {
		t.Error("weight mismatch should fail")
	}
	if _, err := NewMarkovModal([]ModeSpec{{Mean: 2, Sigma: 0.1}}, []float64{1}, 0.1, 0.5, 1, 1); err == nil {
		t.Error("mean>1 should fail")
	}
	if _, err := NewMarkovModal([]ModeSpec{{Mean: 0.5, Sigma: 0}}, []float64{1}, 0.1, 0.5, 1, 1); err == nil {
		t.Error("sigma=0 should fail")
	}
	if _, err := NewMarkovModal(good, []float64{-1, 1}, 0.1, 0.5, 1, 1); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewMarkovModal(good, []float64{0, 0}, 0.1, 0.5, 1, 1); err == nil {
		t.Error("zero weights should fail")
	}
	if _, err := NewMarkovModal(good, w, 1.5, 0.5, 1, 1); err == nil {
		t.Error("switchProb>1 should fail")
	}
	if _, err := NewMarkovModal(good, w, 0.1, 1.0, 1, 1); err == nil {
		t.Error("phi=1 should fail")
	}
	if _, err := NewMarkovModal(good, w, 0.1, 0.5, 0, 1); err == nil {
		t.Error("dt=0 should fail")
	}
}

// modeOf classifies the process value at time t to the nearest of the mode
// means p was built from — the mode in force whenever the modes are a few
// sigma apart, since a switch redraws the value from the new mode.
func modeOf(p Process, modes []ModeSpec, t float64) int {
	v, best := p.At(t), 0
	for i, m := range modes {
		if math.Abs(v-m.Mean) < math.Abs(v-modes[best].Mean) {
			best = i
		}
	}
	return best
}

func TestMarkovModalOccupancyMatchesWeights(t *testing.T) {
	modes := []ModeSpec{{Mean: 0.2, Sigma: 0.02}, {Mean: 0.8, Sigma: 0.02}}
	p, err := NewMarkovModal(modes, []float64{0.3, 0.7}, 0.2, 0.5, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	n := 30000
	inHigh := 0
	for i := 0; i < n; i++ {
		if modeOf(p, modes, float64(i)) == 1 {
			inHigh++
		}
	}
	frac := float64(inHigh) / float64(n)
	if math.Abs(frac-0.7) > 0.03 {
		t.Errorf("high-mode occupancy=%g want ~0.7", frac)
	}
}

func TestMarkovModalBurstyVsSlow(t *testing.T) {
	modes := []ModeSpec{{Mean: 0.2, Sigma: 0.02}, {Mean: 0.8, Sigma: 0.02}}
	w := []float64{0.5, 0.5}
	bursty, _ := NewMarkovModal(modes, w, 0.3, 0.5, 1, 13)
	slow, _ := NewMarkovModal(modes, w, 0.002, 0.5, 1, 13)
	countTransitions := func(p Process, n int) int {
		tr := 0
		prev := modeOf(p, modes, 0)
		for i := 1; i < n; i++ {
			cur := modeOf(p, modes, float64(i))
			if cur != prev {
				tr++
			}
			prev = cur
		}
		return tr
	}
	bt := countTransitions(bursty, 5000)
	st := countTransitions(slow, 5000)
	if bt <= st*10 {
		t.Errorf("bursty transitions %d should dwarf slow %d", bt, st)
	}
}

// TestMarkovModalModes: the process keeps its own copy of the mode table,
// so a caller that reuses its slice afterwards does not change the draws.
func TestMarkovModalModes(t *testing.T) {
	modes := []ModeSpec{{Mean: 0.2, Sigma: 0.02}, {Mean: 0.8, Sigma: 0.02}}
	w := []float64{0.5, 0.5}
	p, _ := NewMarkovModal(modes, w, 0.1, 0.5, 1, 1)
	modes[0], modes[1] = ModeSpec{Mean: 0.5, Sigma: 0.1}, ModeSpec{Mean: 0.5, Sigma: 0.1}
	want, _ := NewMarkovModal([]ModeSpec{{Mean: 0.2, Sigma: 0.02}, {Mean: 0.8, Sigma: 0.02}}, w, 0.1, 0.5, 1, 1)
	for i := 0; i < 200; i++ {
		if got, exp := p.At(float64(i)), want.At(float64(i)); got != exp {
			t.Fatalf("tick %d: %g, want %g: the process reads its caller's mode table", i, got, exp)
		}
	}
}

func TestTrace(t *testing.T) {
	s, _ := timeseries.FromSlices([]float64{10, 20}, []float64{0.3, 1.7})
	tr, err := NewUniformTrace(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.At(5); got != 0.3 {
		t.Errorf("before first point=%g want first value", got)
	}
	if got := tr.At(15); got != 0.3 {
		t.Errorf("At(15)=%g", got)
	}
	if got := tr.At(25); got != 1 {
		t.Errorf("At(25)=%g want clamped 1", got)
	}
	if tr.Interval() != 10 {
		t.Errorf("Interval=%g", tr.Interval())
	}
	if _, err := NewUniformTrace(timeseries.NewSeries(0), 1); err == nil {
		t.Error("empty series should fail")
	}
	if _, err := NewUniformTrace(s, 0); err == nil {
		t.Error("dt=0 should fail")
	}
	if _, err := NewUniformTrace(nil, 1); err == nil {
		t.Error("nil series should fail")
	}
}

func TestUserSessions(t *testing.T) {
	if _, err := NewUserSessions(0, 1, 1, 1); err == nil {
		t.Error("lambda=0 should fail")
	}
	if _, err := NewUserSessions(1, 0, 1, 1); err == nil {
		t.Error("mu=0 should fail")
	}
	if _, err := NewUserSessions(1, 1, 0, 1); err == nil {
		t.Error("dt=0 should fail")
	}
	// Busy machine (many users): low availability on average; idle machine:
	// high availability.
	busy, err := NewUserSessions(0.5, 0.05, 1, 17) // ~10 users
	if err != nil {
		t.Fatal(err)
	}
	idle, err := NewUserSessions(0.01, 0.1, 1, 18) // ~0.1 users
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := Record(busy, 0, 5000, 1)
	si, _ := Record(idle, 0, 5000, 1)
	mb := stats.Mean(sb.Values())
	mi := stats.Mean(si.Values())
	if mb >= 0.4 {
		t.Errorf("busy availability=%g want low", mb)
	}
	if mi <= 0.7 {
		t.Errorf("idle availability=%g want high", mi)
	}
	for _, x := range sb.Values() {
		if x <= 0 || x > 1 {
			t.Fatalf("availability %g outside (0,1]", x)
		}
	}
}

func TestRecord(t *testing.T) {
	p := NewConstant(0.5)
	s, err := Record(p, 0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 6 {
		t.Errorf("len=%d want 6", s.Len())
	}
	if _, err := Record(p, 10, 0, 1); err == nil {
		t.Error("reversed range should fail")
	}
	if _, err := Record(p, 0, 10, 0); err == nil {
		t.Error("dt=0 should fail")
	}
}

// occupied counts the modes p visits over its first n ticks.
func occupied(p Process, modes []ModeSpec, n int) int {
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		seen[modeOf(p, modes, float64(i))] = true
	}
	return len(seen)
}

func TestPresetsConstructAndBehave(t *testing.T) {
	p1, err := Platform1TriModal(1)
	if err != nil {
		t.Fatal(err)
	}
	if occ := occupied(p1, platform1Modes, 5000); occ != len(platform1Modes) {
		t.Errorf("platform1 visits %d of its %d modes", occ, len(platform1Modes))
	}
	center, err := Platform1CenterMode(2)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := Record(center, 0, 5000, 1)
	if m := stats.Mean(s.Values()); math.Abs(m-0.48) > 0.02 {
		t.Errorf("center mode mean=%g", m)
	}
	p2, err := Platform2FourModeBursty(3)
	if err != nil {
		t.Fatal(err)
	}
	if occ := occupied(p2, platform2Modes, 5000); occ != len(platform2Modes) {
		t.Errorf("platform2 visits %d of its %d modes", occ, len(platform2Modes))
	}
	light, err := LightLoad(4)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := Record(light, 0, 2000, 1)
	if m := stats.Mean(s2.Values()); m < 0.85 {
		t.Errorf("light load mean=%g", m)
	}
}

func TestPlatform2IsBurstier(t *testing.T) {
	p1, _ := Platform1TriModal(5)
	p2, _ := Platform2FourModeBursty(5)
	trans := func(p Process, modes []ModeSpec, n int) int {
		tr, prev := 0, modeOf(p, modes, 0)
		for i := 1; i < n; i++ {
			if cur := modeOf(p, modes, float64(i)); cur != prev {
				tr++
				prev = cur
			}
		}
		return tr
	}
	if t1, t2 := trans(p1, platform1Modes, 3000), trans(p2, platform2Modes, 3000); t2 <= t1*5 {
		t.Errorf("platform2 transitions %d should dwarf platform1 %d", t2, t1)
	}
}

func TestConcurrentAccess(t *testing.T) {
	p, _ := NewSingleMode(0.5, 0.05, 0.8, 1, 99)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				v := p.At(float64((g*137 + i) % 5000))
				if v < 0 || v > 1 {
					t.Errorf("out of range value %g", v)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestRecordNoDriftOnLongRanges(t *testing.T) {
	// Regression: t += dt accumulation dropped the final sample on long
	// recordings with non-representable steps.
	s, err := Record(Dedicated(), 0, 10000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 100001 {
		t.Errorf("len=%d want 100001", s.Len())
	}
}

func TestSwitchRegimeChange(t *testing.T) {
	before := NewConstant(0.9)
	after := NewConstant(0.2)
	sw, err := NewSwitch([]float64{500}, before, after)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Interval() != 1 {
		t.Errorf("dt=%g", sw.Interval())
	}
	if v := sw.At(499); v != 0.9 {
		t.Errorf("before switch: %g", v)
	}
	if v := sw.At(500); v != 0.2 {
		t.Errorf("at switch: %g", v)
	}
	if v := sw.At(10000); v != 0.2 {
		t.Errorf("after switch: %g", v)
	}
	// The composed tick is the finer of the two components.
	fine, err := NewSingleMode(0.5, 0.05, 0.8, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	sw2, err := NewSwitch([]float64{100}, before, fine)
	if err != nil {
		t.Fatal(err)
	}
	if sw2.Interval() != 0.25 {
		t.Errorf("interval=%g want 0.25", sw2.Interval())
	}
	if _, err := NewSwitch([]float64{0}, before, after); err == nil {
		t.Error("non-positive switch time should fail")
	}
	if _, err := NewSwitch([]float64{10}, nil, after); err == nil {
		t.Error("nil process should fail")
	}
	// n regimes: regime j holds on [at[j-1], at[j]).
	mid := NewConstant(0.5)
	sw3, err := NewSwitch([]float64{100, 200}, before, mid, after)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ t, want float64 }{{0, 0.9}, {99, 0.9}, {100, 0.5}, {199, 0.5}, {200, 0.2}, {1e6, 0.2}} {
		if v := sw3.At(c.t); v != c.want {
			t.Errorf("three regimes at t=%g: %g, want %g", c.t, v, c.want)
		}
	}
	for _, at := range [][]float64{{200, 100}, {100, 100}, {100}, {100, 200, 300}} {
		if _, err := NewSwitch(at, before, mid, after); err == nil {
			t.Errorf("boundaries %v for three regimes should fail", at)
		}
	}
	if _, err := NewSwitch(nil, before); err == nil {
		t.Error("a single regime should fail")
	}
}
