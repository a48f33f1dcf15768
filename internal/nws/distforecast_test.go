package nws

import (
	"math"
	"testing"

	"prodpred/internal/dist"
	"prodpred/internal/stochastic"
)

// fourModal switches pseudo-randomly between four well-separated modes
// with small within-mode wobble — the shape of the bursty paper platform,
// where the *switch times* are unpredictable (a periodic series would be
// trackable and the point forecaster would rightly win).
func fourModal(n int) []float64 { return fourModalRate(n, 8) }

// fourModalRate switches modes with probability ratePct/100 per tick.
func fourModalRate(n, ratePct int) []float64 {
	modes := []float64{0.12, 0.35, 0.62, 0.90}
	out := make([]float64, n)
	x := uint64(0x9E3779B97F4A7C15)
	mode := 0
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		if (x>>33)%100 < uint64(ratePct) {
			mode = int((x >> 40) % 4)
		}
		out[i] = modes[mode] + 0.01*math.Sin(float64(i)*1.7)
	}
	return out
}

func TestTournamentPrefersDistributionOnMultimodal(t *testing.T) {
	mix := NewMix(nil)
	tour := NewTournament(mix)
	series := fourModal(400)
	for i := 1; i < len(series); i++ {
		hist := series[:i]
		tour.Update(hist, series[i])
		mix.Update(hist, series[i])
	}
	_, name := tour.Winner()
	if name == NormalForecasterName {
		t.Fatalf("tournament still prefers %q on a 4-modal series; scores %v", name, tour.Scores())
	}
	scores := tour.Scores()
	if !(scores[name] < scores[NormalForecasterName]) {
		t.Fatalf("winner %q score %v not below normal %v", name, scores[name], scores[NormalForecasterName])
	}
	var total int64
	for _, w := range tour.Wins() {
		total += w
	}
	if total == 0 {
		t.Fatal("no tournament rounds recorded")
	}
}

func TestTournamentQuantilesMonotoneAndCalibratedShape(t *testing.T) {
	mix := NewMix(nil)
	tour := NewTournament(mix)
	// Fast switching (dwell ≈ 4 ticks) so every EM fit window covers all
	// four modes.
	series := fourModalRate(300, 25)
	for i := 1; i < len(series); i++ {
		tour.Update(series[:i], series[i])
		mix.Update(series[:i], series[i])
	}
	winner, name := tour.Winner()
	point, err := mix.Forecast(series)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]float64, dist.NumLevels)
	if !winner.Quantiles(&point, dist.GridLevels, qs) {
		t.Fatalf("winner %q cannot predict", name)
	}
	prev := math.Inf(-1)
	for i, q := range qs {
		if q < prev {
			t.Fatalf("quantile curve not monotone at p=%g: %g < %g", dist.GridLevels[i], q, prev)
		}
		prev = q
	}
	// The 4 modes span [0.12, 0.90]; the unconditional mixture
	// competitor's 95% band must cover most of that range.
	var mf DistForecaster
	for _, f := range tour.forecasters {
		if f.Name() == MixtureForecasterName {
			mf = f
		}
	}
	band := make([]float64, 2)
	if !mf.Quantiles(&point, []float64{0.025, 0.975}, band) {
		t.Fatal("mixture competitor cannot predict after 300 rounds")
	}
	if lo, hi := band[0], band[1]; lo > 0.2 || hi < 0.8 {
		t.Fatalf("mixture 95%% band [%g, %g] misses the mode range", lo, hi)
	}
}

func TestTournamentStateRoundTrip(t *testing.T) {
	mix := NewMix(nil)
	tour := NewTournament(mix)
	series := fourModal(200)
	for i := 1; i < len(series); i++ {
		tour.Update(series[:i], series[i])
		mix.Update(series[:i], series[i])
	}
	st := tour.ExportState()

	mix2 := NewMix(nil)
	tour2 := NewTournament(mix2)
	if err := tour2.ImportState(st); err != nil {
		t.Fatal(err)
	}
	copy(mix2.sqErr, mix.sqErr)
	copy(mix2.n, mix.n)
	// Both tournaments must agree on the winner and score identically on
	// further rounds.
	for i := len(series) - 50; i < len(series); i++ {
		tour.Update(series[:i], series[i])
		tour2.Update(series[:i], series[i])
	}
	_, n1 := tour.Winner()
	_, n2 := tour2.Winner()
	if n1 != n2 {
		t.Fatalf("restored tournament winner %q != original %q", n2, n1)
	}
	s1, s2 := tour.Scores(), tour2.Scores()
	for k, v := range s1 {
		if v2 := s2[k]; v != v2 && !(math.IsNaN(v) && math.IsNaN(v2)) {
			t.Fatalf("restored score %q = %v, want %v", k, v2, v)
		}
	}
}

func TestTournamentImportZeroStateResets(t *testing.T) {
	mix := NewMix(nil)
	tour := NewTournament(mix)
	series := fourModal(200)
	for i := 1; i < len(series); i++ {
		tour.Update(series[:i], series[i])
	}
	if err := tour.ImportState(TournamentState{}); err != nil {
		t.Fatal(err)
	}
	if _, name := tour.Winner(); name != NormalForecasterName {
		t.Fatalf("reset tournament winner = %q, want incumbent %q", name, NormalForecasterName)
	}
	for _, s := range tour.Scores() {
		if !math.IsNaN(s) {
			t.Fatalf("reset tournament still scored: %v", tour.Scores())
		}
	}
}

func TestTournamentImportRejectsSizeMismatch(t *testing.T) {
	tour := NewTournament(NewMix(nil))
	err := tour.ImportState(TournamentState{Loss: []float64{1}, Weight: []float64{1}, Wins: []int64{1}})
	if err == nil {
		t.Fatal("size-mismatched tournament state accepted")
	}
}

func TestRobustDistReportFallbackChain(t *testing.T) {
	// No history at all: the prior, tagged as such.
	m, err := NewSensorMonitor(func(t float64) (float64, error) { return 0, ErrSampleDropped }, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	prior := stochastic.New(0.5, 0.5)
	ld := m.RobustDistReport(10, prior)
	if ld.Forecaster != PriorForecasterName {
		t.Fatalf("no-history report tagged %q, want %q", ld.Forecaster, PriorForecasterName)
	}
	if med := ld.Quantiles[dist.MedianLevel]; math.Abs(med-0.5) > 1e-9 {
		t.Fatalf("prior median %g, want 0.5", med)
	}
	if len(ld.Quantiles) != dist.NumLevels {
		t.Fatalf("report has %d quantiles, want %d", len(ld.Quantiles), dist.NumLevels)
	}

	// Short healthy history: the incumbent normal forecaster serves.
	healthy, err := NewSensorMonitor(func(t float64) (float64, error) { return 0.4, nil }, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	ld = healthy.RobustDistReport(20, prior)
	if ld.Forecaster != NormalForecasterName {
		t.Fatalf("healthy report tagged %q, want %q", ld.Forecaster, NormalForecasterName)
	}
	if len(ld.Components) != 1 {
		t.Fatalf("normal report has %d components, want 1", len(ld.Components))
	}

	// Staleness beyond the limit: running-mean fallback, widened.
	stale := 0
	flaky, err := NewSensorMonitor(func(ts float64) (float64, error) {
		if stale > 0 {
			return 0, ErrSampleDropped
		}
		return 0.4, nil
	}, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	_ = flaky.RunUntil(20)
	stale = 1
	ld = flaky.RobustDistReport(40, prior)
	if ld.Forecaster != FallbackForecasterName {
		t.Fatalf("stale report tagged %q, want %q", ld.Forecaster, FallbackForecasterName)
	}
}

// TestNormalLoadDistQuantileBits: normalLoadDist's quantiles, which read
// stats.NormalQuantile directly, are bit for bit the ones it made through
// the unit-σ stochastic value (Value{Spread: 2}.Quantile) at every level.
func TestNormalLoadDistQuantileBits(t *testing.T) {
	for _, c := range []struct{ mean, sigma float64 }{{0, 1}, {0.5, 0.25}, {0.37, 0.013}, {1, 0}} {
		ld := normalLoadDist(c.mean, c.sigma, PriorForecasterName)
		for i, p := range dist.GridLevels {
			want := c.mean + c.sigma*stochastic.Value{Mean: 0, Spread: 2}.Quantile(p)
			if math.Float64bits(ld.Quantiles[i]) != math.Float64bits(want) {
				t.Errorf("mean %g sigma %g level %g: %v, want %v", c.mean, c.sigma, p, ld.Quantiles[i], want)
			}
		}
	}
}

func TestRobustDistReportWidensWithStaleness(t *testing.T) {
	stale := false
	m, err := NewSensorMonitor(func(ts float64) (float64, error) {
		if stale {
			return 0, ErrSampleDropped
		}
		return 0.4 + 0.05*math.Sin(ts), nil
	}, 1, 128)
	if err != nil {
		t.Fatal(err)
	}
	prior := stochastic.New(0.5, 0.5)
	fresh := m.RobustDistReport(60, prior)
	stale = true
	// A few missed samples keep staleness under the fallback limit but
	// must widen the reported band.
	degraded := m.RobustDistReport(64, prior)
	if degraded.Forecaster != fresh.Forecaster {
		t.Fatalf("tag changed under mild staleness: %q -> %q", fresh.Forecaster, degraded.Forecaster)
	}
	fw := fresh.Quantiles[len(fresh.Quantiles)-1] - fresh.Quantiles[0]
	dw := degraded.Quantiles[len(degraded.Quantiles)-1] - degraded.Quantiles[0]
	if !(dw > fw) {
		t.Fatalf("stale band %g not wider than fresh %g", dw, fw)
	}
}

func TestPinballLoss(t *testing.T) {
	if got := pinball(0.9, 1.0, 2.0); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("pinball under-prediction = %g, want 0.9", got)
	}
	if got := pinball(0.9, 2.0, 1.0); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("pinball over-prediction = %g, want 0.1", got)
	}
	if got := pinball(0.5, 1.0, 1.0); got != 0 {
		t.Fatalf("pinball exact = %g, want 0", got)
	}
}
