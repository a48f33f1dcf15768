package nws

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"prodpred/internal/dist"
	"prodpred/internal/stats"
	"prodpred/internal/stochastic"
)

// hash01 is a deterministic uniform in [0,1) keyed by an integer
// (SplitMix64's finalizer), so the test sensors are pure functions of time.
func hash01(k uint64) float64 {
	k += 0x9e3779b97f4a7c15
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	k ^= k >> 31
	return float64(k>>11) / (1 << 53)
}

var errFlaky = errors.New("flaky probe")

// roughSensor is a regime-switching, noisy availability with every fault
// class the monitor knows: isolated drops, transients that recover on a
// retry and transients that never do, short outages, and two outages longer
// than staleLimit — one of them from the very first tick, so the history
// starts empty.
func roughSensor(t float64) (float64, error) {
	tick := uint64(math.Floor(t / 5))
	onTick := t == 5*float64(tick)
	switch {
	case tick < 12 || (tick >= 900 && tick < 915):
		return 0, ErrOutage
	case tick%97 >= 90:
		return 0, ErrOutage
	case hash01(tick*7+1) < 0.05:
		return 0, ErrSampleDropped
	case hash01(tick*7+2) < 0.04:
		// Transient on the tick itself; a third of them also fail every
		// retry inside the period.
		if onTick || hash01(tick*7+3) < 0.33 {
			return 0, Transient(errFlaky)
		}
	}
	modes := []float64{0.22, 0.48, 0.71, 0.93}
	dwell := uint64(23)
	if tick >= 1200 && tick < 2000 {
		dwell = 1 // jumps every sample: the point forecasts chase, the mixture fits
	}
	regime := modes[int(hash01(tick/dwell*7+4)*4)]
	v := regime + 0.04*(hash01(tick*7+5)-0.5)
	if hash01(tick*7+6) < 0.03 {
		v = 1 / float64(1+int(hash01(tick*7+7)*3)) // an exact point mass
	}
	return v, nil
}

// recomputed is the monitor as it worked before the memos: every postmortem
// and every report runs the battery over a fresh History() copy, and the
// empirical competitor sorts its residual window again for every call. Until
// the ring wraps the battery is the history-taking Mix's sweep; after, its
// whole-ring forecasters are alignedFold's O(ring) fold of the aggregate's
// definition, which must stay within sweepTolerance of the sweep. A
// tournament-less Monitor supplies the sampling (retries, gap counters,
// staleness, ring); its own mix is ignored.
type recomputed struct {
	t       *testing.T
	feed    *Monitor
	mix     *Mix
	tour    *Tournament
	preds   sweep // the battery's predictions of the last history forecast
	bySweep sweep // the same, as the sweep read them
}

// sweepTolerance is how far, relative, the aggregate's whole-ring forecasts
// may read from the sweep's on a wrapped ring: the same additions in another
// order.
const sweepTolerance = 1e-14

// forecast runs the battery over hist, the ring after recorded samples, and
// picks from it; nil when the mix has no forecast.
func (r *recomputed) forecast(hist []float64, recorded int) *Forecast {
	r.t.Helper()
	r.mix.sweep(hist, &r.preds)
	if recorded > r.feed.ring.Cap() {
		copy(r.bySweep.val, r.preds.val)
		alignedFold(r.mix, hist, recorded, &r.preds)
		for i, fused := range r.mix.fused {
			got, want := r.preds.val[i], r.bySweep.val[i]
			if fused && !(math.Abs(got-want) <= sweepTolerance*math.Abs(want)) {
				r.t.Fatalf("%s after %d samples in a ring of %d: aligned fold %v, sweep %v",
					r.mix.names[i], recorded, len(hist), got, want)
			}
		}
	}
	f, err := r.mix.pick(&r.preds, hist)
	if err != nil {
		return nil
	}
	return &f
}

// empirical returns a tournament's empirical residual-quantile competitor.
func empirical(t *Tournament) *empiricalDist {
	for _, f := range t.forecasters {
		if e, ok := f.(*empiricalDist); ok {
			return e
		}
	}
	return nil
}

// freshSort replaces an empirical competitor's sorted window with a fresh
// sort.Float64s of its residuals.
func freshSort(e *empiricalDist) {
	e.sorted = append(e.sorted[:0], e.residuals...)
	sort.Float64s(e.sorted)
}

// resort sorts the empirical competitor's window afresh for its next call.
func (r *recomputed) resort() { freshSort(empirical(r.tour)) }

func newRecomputed(t *testing.T, sensor Sensor, period float64, histSize int) *recomputed {
	t.Helper()
	feed, err := newMonitor(sensor, period, histSize)
	if err != nil {
		t.Fatal(err)
	}
	mix := NewMix(nil)
	return &recomputed{t: t, feed: feed, mix: mix, tour: NewTournament(mix), preds: mix.newSweep(), bySweep: mix.newSweep()}
}

// tick takes the one sample due at time t.
func (r *recomputed) tick(t float64) {
	hist := r.feed.History()
	recorded := r.feed.Gaps().Recorded()
	_ = r.feed.RunUntil(t)
	if r.feed.Gaps().Recorded() == recorded || len(hist) == 0 {
		return
	}
	last, _ := r.feed.Last()
	point := r.forecast(hist, recorded)
	r.resort()
	r.tour.update(hist, point, last.V)
	r.mix.score(&r.preds, last.V)
}

func (r *recomputed) state() MonitorState {
	st := r.feed.ExportState()
	st.MixSqErr = append([]float64(nil), r.mix.sqErr...)
	st.MixN = append([]int(nil), r.mix.n...)
	st.Tournament = r.tour.ExportState()
	return st
}

func (r *recomputed) fallback() (mean, sigma float64) {
	mean, std := stats.MeanStd(r.feed.History())
	sigma = math.Max(std, 0.1*math.Abs(mean))
	if sigma < minConservativeRMSE {
		sigma = minConservativeRMSE
	}
	return mean, sigma * r.feed.DegradationFactor()
}

func (r *recomputed) robustReport(prior stochastic.Value) stochastic.Value {
	if r.feed.Len() == 0 {
		return prior
	}
	if r.feed.Staleness() <= staleLimit {
		if point := r.forecast(r.feed.History(), r.feed.Gaps().Recorded()); point != nil {
			f := *point
			if r.feed.Staleness() > 0 && f.RMSE < minConservativeRMSE {
				f.RMSE = minConservativeRMSE
			}
			f.RMSE *= r.feed.DegradationFactor()
			return f.Stochastic()
		}
	}
	return stochastic.FromMeanSigma(r.fallback())
}

func (r *recomputed) robustDistReport(prior stochastic.Value) LoadDist {
	if r.feed.Len() == 0 {
		return normalLoadDist(prior.Mean, math.Max(prior.Sigma(), minConservativeRMSE), PriorForecasterName)
	}
	if r.feed.Staleness() <= staleLimit {
		point := r.forecast(r.feed.History(), r.feed.Gaps().Recorded())
		winner, name := r.tour.Winner()
		qs, med := make([]float64, dist.NumLevels), make([]float64, 1)
		quantiles := func(ps, out []float64) bool {
			r.resort()
			return winner.Quantiles(point, ps, out)
		}
		if quantiles(dist.GridLevels, qs) && quantiles([]float64{0.5}, med) {
			r.resort()
			comps := winner.Components(point)
			if w := r.feed.DegradationFactor(); w != 1 {
				for i := range qs {
					qs[i] = med[0] + w*(qs[i]-med[0])
				}
				widened := make([]Component, len(comps))
				for i, c := range comps {
					widened[i] = Component{Weight: c.Weight, Mean: c.Mean, Sigma: c.Sigma * w}
				}
				comps = widened
			}
			dist.Monotone(qs)
			return LoadDist{Quantiles: qs, Components: comps, Forecaster: name}
		}
	}
	mean, sigma := r.fallback()
	return normalLoadDist(mean, sigma, FallbackForecasterName)
}

// sameBits reports whether two values are deeply equal with floats compared
// by bit pattern (reflect.DeepEqual calls NaN unequal to itself and -0
// equal to +0).
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

func mustSameBits(t *testing.T, what string, tick int, got, want any) {
	t.Helper()
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("tick %d: %s diverged\nmemoised:   %+v\nrecomputed: %+v", tick, what, got, want)
	}
}

// TestMonitorMemoMatchesRecompute: the memoised monitor is bit-identical to
// one that recomputes everything from the ring — the exported
// history-taking methods until the ring wraps, the aligned-block fold after
// — in state, X ± a report and distribution report at every tick of a faulty
// stream, across an ExportState/ImportState hand-over to a monitor whose
// memos hold another stream's state; a monitor that imports its state at any
// tick reads as it does from there on; and it reads the battery once per
// recorded sample however often it is read, and sorts the residual window
// only when it imports one.
func TestMonitorMemoMatchesRecompute(t *testing.T) {
	const period, ticks = 5.0, 2600
	prior := stochastic.New(0.5, 0.5)
	// Below a block and narrower than median-15 plus one, not a multiple of
	// a block, and below and above the mixture window.
	for _, histSize := range []int{16, 33, 48, 100} {
		m, err := NewSensorMonitor(roughSensor, period, histSize)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRecomputed(t, roughSensor, period, histSize)
		winners := map[string]int{}
		// Counted over every monitor that stands in for m.
		sorts, sweeps := 0, 0
		for k := 0; k < ticks; k++ {
			at := period * float64(k)
			if k == ticks/2 || k == ticks/2+7 {
				// Hand the state over mid-run, to a monitor that has lived
				// through a different stretch of the stream and has both
				// memos warm: ImportState must drop them.
				sorts += empirical(m.tour).sorts
				sweeps += m.mix.sweeps
				if m.swept {
					sweeps-- // the receiver reads this ring state again
				}
				m = handOver(t, m, period, histSize, prior)
				sweeps -= m.mix.sweeps
			}
			// A twin imports m's state before the tick and takes the tick's
			// sample from its rebuilt aggregate.
			twin, err := NewSensorMonitor(roughSensor, period, histSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := twin.ImportState(m.ExportState()); err != nil {
				t.Fatalf("tick %d: %v", k, err)
			}
			ref.tick(at)
			// Reads repeat within a tick on the serving path (one per
			// cache miss); the memo must hand every one the same answer.
			for read := 0; read < 1+k%3; read++ {
				mustSameBits(t, "RobustReport", k, m.RobustReport(at, prior), ref.robustReport(prior))
				mustSameBits(t, "RobustDistReport", k, m.RobustDistReport(at, prior), ref.robustDistReport(prior))
			}
			mustSameBits(t, "ExportState", k, m.ExportState(), ref.state())
			mustSameBits(t, "imported RobustReport", k, twin.RobustReport(at, prior), m.RobustReport(at, prior))
			mustSameBits(t, "imported RobustDistReport", k, twin.RobustDistReport(at, prior), m.RobustDistReport(at, prior))
			mustSameBits(t, "imported ExportState", k, twin.ExportState(), m.ExportState())
			// Every ring state is read once: by its first report, or — when
			// staleness keeps the reports off the mix — by the postmortem of
			// the sample after it.
			lag := m.Gaps().Recorded() - (sweeps + m.mix.sweeps)
			if lag < 0 || lag > 1 || (lag == 1 && m.Staleness() <= staleLimit) {
				t.Fatalf("tick %d: %d battery reads for %d recorded samples at staleness %g",
					k, sweeps+m.mix.sweeps, m.Gaps().Recorded(), m.Staleness())
			}
			winners[m.RobustDistReport(at, prior).Forecaster]++
		}
		g := m.Gaps()
		if g.Recorded() <= 2*histSize {
			t.Fatalf("history %d: the ring did not wrap", histSize)
		}
		// The residual window is kept sorted by insertion: sorted whole by
		// each of the two imports, never by a round.
		if sorts += empirical(m.tour).sorts; sorts != 2 {
			t.Errorf("history %d: %d residual window sorts over two imports", histSize, sorts)
		}
		if g.Recorded() < 2000 || g.Dropped == 0 || g.Outage == 0 || g.Recovered == 0 || g.TransientLost == 0 {
			t.Fatalf("history %d: the stream did not exercise every fault class: %+v", histSize, g)
		}
		names := []string{PriorForecasterName, FallbackForecasterName, NormalForecasterName, EmpiricalForecasterName}
		if histSize+1 >= mixtureMinHist {
			names = append(names, MixtureForecasterName)
		}
		for _, name := range names {
			if winners[name] == 0 {
				t.Errorf("history %d: no tick was served by %q: %v", histSize, name, winners)
			}
		}
	}
}

// handOver returns a monitor built like m that first ran 300 ticks of the
// stream on its own, was read (both memos warm, on another window), and
// then imported m's state.
func handOver(t *testing.T, m *Monitor, period float64, histSize int, prior stochastic.Value) *Monitor {
	t.Helper()
	next, err := NewSensorMonitor(roughSensor, period, histSize)
	if err != nil {
		t.Fatal(err)
	}
	_ = next.RobustDistReport(period*300, prior)
	if _, ok := empirical(next.tour).sortedResiduals(); !ok || !next.swept {
		t.Fatal("the receiving monitor's memos are cold")
	}
	if err := next.ImportState(m.ExportState()); err != nil {
		t.Fatal(err)
	}
	return next
}

// TestEmpiricalSortsOncePerWindow: the residual window is sorted whole once
// after an import and never per round — a round is one removal and one
// insertion — and what is read, twice between two samples, is what a fresh
// sort of the residuals reads.
func TestEmpiricalSortsOncePerWindow(t *testing.T) {
	point := &Forecast{Value: 0.5}
	live := NewTournament(NewMix(nil))
	for i := 0; i < empiricalWindow+9; i++ {
		empirical(live).Observe(nil, point, hash01(uint64(i)))
	}
	imported := NewTournament(NewMix(nil))
	if err := imported.ImportState(live.ExportState()); err != nil {
		t.Fatal(err)
	}
	read := func(f *empiricalDist) ([]float64, []Component) {
		qs := make([]float64, dist.NumLevels)
		if !f.Quantiles(point, dist.GridLevels, qs) {
			t.Fatal("no quantiles from a full window")
		}
		return qs, f.Components(point)
	}
	for round := 1; round <= 3; round++ {
		for _, c := range []struct {
			name  string
			f     *empiricalDist
			sorts int
		}{{"live", empirical(live), 0}, {"imported", empirical(imported), 1}} {
			qs, comps := read(c.f)
			again, _ := read(c.f)
			if c.f.sorts != c.sorts {
				t.Fatalf("round %d: the %s window was sorted %d times, want %d", round, c.name, c.f.sorts, c.sorts)
			}
			fresh := &empiricalDist{residuals: append([]float64(nil), c.f.residuals...)}
			freshSort(fresh)
			wantQs, wantComps := read(fresh)
			mustSameBits(t, c.name+" second read", round, again, qs)
			mustSameBits(t, c.name+" quantiles", round, qs, wantQs)
			mustSameBits(t, c.name+" components", round, comps, wantComps)
			c.f.Observe(nil, point, 0.1*float64(round))
		}
	}
}

// TestSweepMatchesPredict: the fused pass is only a loop shared between
// RunningMean and the ExpSmoothing chains — every slot of a sweep is, to the
// bit, what that forecaster's own Predict returns on the same history.
func TestSweepMatchesPredict(t *testing.T) {
	long := make([]float64, 1500)
	for i := range long {
		long[i], _ = roughSensor(5 * float64(1000+i)) // failed ticks read 0
	}
	huge := make([]float64, 40)
	for i := range huge {
		huge[i] = math.MaxFloat64 * (0.5 + 0.5*hash01(uint64(i))) // the running sum overflows
	}
	negZero := math.Copysign(0, -1)
	hists := []struct {
		name string
		hist []float64
	}{
		{"empty", nil},
		{"one", []float64{0.37}},
		{"empty after one", []float64{}}, // the slots of "one" must not survive
		{"one -0", []float64{negZero}},
		{"opens with -0", []float64{negZero, negZero, 0.25, 0.5}},
		{"all -0", []float64{negZero, negZero, negZero}},
		{"short", long[:4]},
		{"one window", long[:30]},
		{"ring", long[:512]},
		{"long", long},
		{"short after long", long[:2]}, // too short again for the windows
		{"NaN inside", []float64{0.2, 0.4, math.NaN(), 0.6, 0.8, 0.3}},
		{"NaN first", []float64{math.NaN(), 0.4, 0.6}},
		{"+Inf inside", []float64{0.2, math.Inf(1), 0.6, 0.1}},
		{"both Inf", []float64{0.2, math.Inf(1), math.Inf(-1), 0.1}},
		{"overflowing", huge},
		{"denormal", []float64{5e-324, 1e-310, 5e-324, 0, 2e-320}},
		{"constant", []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}},
		{"negative", []float64{-1.5, -0.25, -3, -0.125}},
		{"alternating", []float64{1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1}},
		{"large and tiny", []float64{1e300, 1e-300, -1e300, 1e-300}},
	}
	batteries := map[string][]Forecaster{
		"default": DefaultBattery(),
		// Gains outside (0,1] are left to Predict, which refuses them; 1 and
		// the smallest positive gain are inside and ride the shared pass. A
		// forecaster listed twice gets the same answer in both slots.
		"odd gains": {
			ExpSmoothing{Alpha: 0}, ExpSmoothing{Alpha: -0.3}, ExpSmoothing{Alpha: 1.5},
			ExpSmoothing{Alpha: math.NaN()}, ExpSmoothing{Alpha: math.Inf(1)},
			ExpSmoothing{Alpha: 1}, ExpSmoothing{Alpha: 5e-324}, ExpSmoothing{Alpha: 0.3},
			RunningMean{}, LastValue{}, RunningMean{}, ExpSmoothing{Alpha: 0.3},
			WindowMean{W: 3}, WindowMedian{W: 4},
		},
		"nothing fused": {LastValue{}, WindowMean{W: 2}},
	}
	for bname, battery := range batteries {
		mix := NewMix(battery)
		out := mix.newSweep()
		// One sweep struct through every history, in order: a slot left over
		// from the previous history would show up as a mismatch.
		for _, h := range hists {
			mix.sweep(h.hist, &out)
			for i, f := range battery {
				val, ok := f.Predict(h.hist)
				if out.ok[i] != ok || math.Float64bits(out.val[i]) != math.Float64bits(val) {
					t.Errorf("battery %q, history %q, slot %d (%s): sweep (%v, %v), Predict (%v, %v)",
						bname, h.name, i, f.Name(), out.val[i], out.ok[i], val, ok)
				}
			}
		}
	}
}

// Unread, a monitor sweeps each ring state when the next sample's
// postmortem needs it: one sweep per recorded sample, less the newest.
func TestMonitorSweepsOncePerSampleUnread(t *testing.T) {
	m, err := NewSensorMonitor(roughSensor, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	_ = m.RunUntil(5 * 999)
	if got, want := m.mix.sweeps, m.Gaps().Recorded()-1; got != want {
		t.Fatalf("%d battery sweeps for %d recorded samples", got, want+1)
	}
}

func TestBandwidthMonitorHasNoTournament(t *testing.T) {
	env := platform1Env(t, 3)
	bw, err := NewBandwidthMonitor(env, 0, 1, 8000, 5, 64)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewCPUMonitor(env, 0, 5, 64)
	if err != nil {
		t.Fatal(err)
	}
	if bw.Tournament() != nil || cpu.Tournament() == nil {
		t.Fatalf("tournaments: bandwidth %v, cpu %v", bw.Tournament(), cpu.Tournament())
	}
	_ = bw.RunUntil(1000)
	_ = cpu.RunUntil(1000)
	if st := bw.ExportState(); !reflect.DeepEqual(st.Tournament, TournamentState{}) {
		t.Fatalf("bandwidth monitor exports a tournament section: %+v", st.Tournament)
	}

	// The distribution report is the incumbent normal read off the point
	// forecast, not a panic.
	prior := stochastic.New(1e6, 1e6)
	f, err := bw.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	ld := bw.RobustDistReport(1000, prior)
	n := dist.Normal{Mu: f.Value, Sigma: math.Max(f.RMSE, minConservativeRMSE)}
	want := LoadDist{Forecaster: NormalForecasterName, Components: []Component{{Weight: 1, Mean: n.Mu, Sigma: n.Sigma}}}
	for _, p := range dist.GridLevels {
		want.Quantiles = append(want.Quantiles, n.Quantile(p))
	}
	dist.Monotone(want.Quantiles)
	mustSameBits(t, "bandwidth RobustDistReport", 200, ld, want)
	if got := bw.RobustReport(1000, prior); got != f.Stochastic() {
		t.Fatalf("RobustReport %+v, forecast %+v", got, f.Stochastic())
	}

	// An image written before bandwidth monitors lost their tournament
	// carries a section for them: it is accepted and dropped.
	old := bw.ExportState()
	old.Tournament = cpu.ExportState().Tournament
	if len(old.Tournament.Loss) == 0 || old.Tournament.FitObs == 0 {
		t.Fatalf("the CPU monitor's tournament state is empty: %+v", old.Tournament)
	}
	restored, err := NewBandwidthMonitor(env, 0, 1, 8000, 5, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ImportState(old); err != nil {
		t.Fatalf("importing an older image's bandwidth state: %v", err)
	}
	mustSameBits(t, "restored state", 200, restored.ExportState(), bw.ExportState())
	mustSameBits(t, "restored report", 200, restored.RobustDistReport(1200, prior), bw.RobustDistReport(1200, prior))
}

// A recorded sample between two mixture refits allocates nothing: the ring
// is read in place, the battery sweeps into the monitor's memo, and the
// tournament scores into its own scratch.
func TestMonitorSampleDoesNotAllocate(t *testing.T) {
	clean := func(t float64) (float64, error) {
		return 0.5 + 0.3*math.Sin(t/40) + 0.05*hash01(uint64(t)), nil
	}
	m, err := NewSensorMonitor(clean, 5, 128)
	if err != nil {
		t.Fatal(err)
	}
	var fit *mixtureDist
	for _, f := range m.tour.forecasters {
		if mf, ok := f.(*mixtureDist); ok {
			fit = mf
		}
	}
	// Fill the ring several times over, then stop right after a refit:
	// AllocsPerRun's warm-up call and its runs all fall before the next.
	at := 5.0 * 600
	_ = m.RunUntil(at)
	for fit.obs%mixtureRefitEvery != 0 {
		at += 5
		_ = m.RunUntil(at)
	}
	prior := stochastic.New(0.5, 0.5)
	allocs := testing.AllocsPerRun(mixtureRefitEvery-2, func() {
		at += 5
		_ = m.RobustReport(at, prior)
	})
	if allocs != 0 {
		t.Errorf("a non-refit sample with an X ± a read allocates %v times", allocs)
	}
	if fit.obs%mixtureRefitEvery != mixtureRefitEvery-1 {
		t.Fatalf("measured %d rounds past a refit, want %d", fit.obs%mixtureRefitEvery, mixtureRefitEvery-1)
	}
}
