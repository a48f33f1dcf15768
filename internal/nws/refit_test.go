package nws

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"prodpred/internal/dist"
	"prodpred/internal/modal"
	"prodpred/internal/stochastic"
)

// eagerMixture is the mixture competitor with its refit on the round: the
// fit and its quantile grid are computed inside Observe on the round the
// refit falls due, from the window as it stands then. It is the reference
// the recorded refits are held to.
type eagerMixture struct {
	obs   int
	modes []Component
	qgrid []float64
}

func (f *eagerMixture) Name() string { return MixtureForecasterName }

func (f *eagerMixture) Observe(hist []float64, _ *Forecast, actual float64) {
	f.obs++
	if f.obs%mixtureRefitEvery != 0 || len(hist)+1 < mixtureMinHist {
		return
	}
	if len(hist) >= mixtureWindow {
		hist = hist[len(hist)-(mixtureWindow-1):]
	}
	window := append(append([]float64(nil), hist...), actual)
	var mm *modal.MixtureModel
	var err error
	if f.modes == nil || f.obs%mixtureWindow == 0 {
		mm, err = modal.FitBIC(window, mixtureKMax)
	} else {
		from := make([]modal.Mode, len(f.modes))
		for i, c := range f.modes {
			from[i] = modal.Mode{Mean: c.Mean, Sigma: c.Sigma, Weight: c.Weight}
		}
		mm, err = modal.Refit(window, from)
	}
	if err != nil {
		return
	}
	modes := make([]Component, len(mm.Modes))
	for i, md := range mm.Modes {
		modes[i] = Component{Weight: md.Weight, Mean: md.Mean, Sigma: math.Max(md.Sigma, minConservativeRMSE)}
	}
	mx, err := componentsMixture(modes)
	if err != nil {
		return
	}
	grid := make([]float64, dist.NumLevels)
	for i, p := range dist.GridLevels {
		grid[i] = mx.Quantile(p)
	}
	f.modes, f.qgrid = modes, grid
}

func (f *eagerMixture) Quantiles(_ *Forecast, ps, out []float64) bool {
	if f.modes == nil {
		return false
	}
	for i, p := range ps {
		out[i] = dist.GridQuantile(f.qgrid, p)
	}
	return true
}

func (f *eagerMixture) Components(*Forecast) []Component { return f.modes }

// eagerMonitor is a monitor whose tournament runs eagerMixture in the
// mixture competitor's seat.
func eagerMonitor(t *testing.T, sensor Sensor, histSize int) (*Monitor, *eagerMixture) {
	t.Helper()
	m, err := NewSensorMonitor(sensor, DefaultPeriod, histSize)
	if err != nil {
		t.Fatal(err)
	}
	eager := &eagerMixture{}
	for i, f := range m.tour.forecasters {
		if f == m.tour.mixture {
			m.tour.forecasters[i] = eager
		}
	}
	m.tour.mixture = &mixtureDist{} // never fed: nothing for update to install
	return m, eager
}

// eagerState is the reference monitor's ExportState with its eager fit in
// the mixture competitor's fields.
func eagerState(m *Monitor, eager *eagerMixture) MonitorState {
	st := m.ExportState()
	st.Tournament.FitObs = eager.obs
	st.Tournament.FitModes = append([]Component(nil), eager.modes...)
	return st
}

// archetypeSensor is a seeded availability series of one of three shapes:
// "regimes" dwells on one of four modes for tens of samples (the bursty
// paper platform), "flicker" jumps between two modes almost every sample
// (where the mixture leads), and "drift" wanders smoothly with noise and
// loses samples to drops and outages (where the point forecasts lead).
func archetypeSensor(kind string, seed uint64) Sensor {
	return func(t float64) (float64, error) {
		tick := uint64(math.Floor(t / DefaultPeriod))
		h := func(k uint64) float64 { return hash01(seed<<32 ^ tick*11 + k) }
		switch kind {
		case "regimes":
			modes := []float64{0.22, 0.48, 0.71, 0.93}
			return modes[int(hash01(seed<<32^tick/23*7)*4)] + 0.04*(h(1)-0.5), nil
		case "flicker":
			if h(2) < 0.5 {
				return 0.3 + 0.05*(h(3)-0.5), nil
			}
			return 0.8 + 0.05*(h(3)-0.5), nil
		default:
			if h(4) < 0.05 {
				return 0, ErrSampleDropped
			}
			if tick%211 >= 200 {
				return 0, ErrOutage
			}
			return 0.55 + 0.3*math.Sin(float64(tick)/37+float64(seed)) + 0.08*(h(5)-0.5), nil
		}
	}
}

// TestDeferredRefitMatchesEager: a monitor whose refits are recorded on
// their round and run later is bit-identical, after every clock step, to
// the one whose refits ran on the round — in ExportState, RobustDistReport
// and the tournament's scores and wins — whoever runs the refits: a
// background Run the test waits for, one that races the reads, or none, so
// that every refit is claimed by the next round or read. The steps are
// random: none, part of a period, one period, and catch-ups across several
// refits, from a first step that warms the monitor up.
func TestDeferredRefitMatchesEager(t *testing.T) {
	prior := stochastic.New(0.5, 0.5)
	modes := []string{"awaited", "racing", "inline"}
	for _, kind := range []string{"regimes", "flicker", "drift"} {
		for seed := uint64(1); seed <= 3; seed++ {
			histSize := []int{64, 100, 512}[seed%3]
			name := fmt.Sprintf("%s/seed=%d/history=%d", kind, seed, histSize)
			t.Run(name, func(t *testing.T) {
				sensor := archetypeSensor(kind, seed)
				ref, eager := eagerMonitor(t, sensor, histSize)
				mons := make([]*Monitor, len(modes))
				var by [3][3]atomic.Int64 // [mode][RefitBy]
				for i := range mons {
					m, err := NewSensorMonitor(sensor, DefaultPeriod, histSize)
					if err != nil {
						t.Fatal(err)
					}
					m.CountRefits(func(b RefitBy) { by[i][b].Add(1) })
					mons[i] = m
				}
				rng := rand.New(rand.NewSource(int64(seed)))
				at := 0.0
				pendingMixtureReads := 0
				for step := 0; step < 260; step++ {
					switch r := rng.Intn(20); {
					case step == 0:
						at = 600 + 5*float64(rng.Intn(16))
					case r == 0:
						// no time passes
					case r == 1:
						at += 2.5
					case r <= 3:
						at += 5 * float64(16+rng.Intn(40))
					default:
						at += 5
					}
					_ = ref.RunUntil(at)
					exportFirst := rng.Intn(2) == 0
					wantDist := ref.RobustDistReport(at, prior)
					wantState := eagerState(ref, eager)
					for i, m := range mons {
						_ = m.RunUntil(at)
						j := m.TakeRefit()
						if j != nil && wantDist.Forecaster == MixtureForecasterName {
							pendingMixtureReads++
						}
						switch {
						case j == nil || modes[i] == "inline":
						case modes[i] == "awaited":
							done := make(chan struct{})
							go func() { j.Run(); close(done) }()
							<-done
						default:
							go j.Run()
							for range rng.Intn(3) {
								runtime.Gosched()
							}
						}
						what := fmt.Sprintf("%s step %d at %g", modes[i], step, at)
						var gotState MonitorState
						if exportFirst {
							gotState = m.ExportState()
						}
						mustSameBits(t, what+": RobustDistReport", step, m.RobustDistReport(at, prior), wantDist)
						mustSameBits(t, what+": Scores", step, scoreList(m.tour), scoreList(ref.tour))
						mustSameBits(t, what+": Wins", step, m.tour.Wins(), ref.tour.Wins())
						if !exportFirst {
							gotState = m.ExportState()
						}
						mustSameBits(t, what+": ExportState", step, gotState, wantState)
					}
				}
				if eager.obs < 4*mixtureRefitEvery || eager.modes == nil {
					t.Fatalf("%d rounds and fit %v: the refits were not exercised", eager.obs, eager.modes)
				}
				if kind == "flicker" && pendingMixtureReads == 0 {
					t.Error("no step left a refit pending while the mixture led")
				}
				// Who ran the refits: no background where none was started,
				// never a reader where every background run was awaited, and
				// as many refits whichever way.
				refits := func(i int) (n int64) {
					for b := range by[i] {
						n += by[i][b].Load()
					}
					return n
				}
				if n := by[2][RefitBackground].Load(); n != 0 {
					t.Errorf("inline: %d refits ran in the background", n)
				}
				if by[0][RefitBackground].Load() == 0 || by[0][RefitReader].Load() != 0 {
					t.Errorf("awaited: %d background and %d reader refits, want some and none",
						by[0][RefitBackground].Load(), by[0][RefitReader].Load())
				}
				for i := range modes {
					if refits(i) != refits(0) {
						t.Errorf("%s ran %d refits, %s %d", modes[i], refits(i), modes[0], refits(0))
					}
				}
			})
		}
	}
}

// scoreList is Tournament.Scores in battery order, NaN kept as bits.
func scoreList(t *Tournament) []float64 {
	scores := t.Scores()
	out := make([]float64, 0, len(scores))
	for _, name := range t.Names() {
		out = append(out, scores[name])
	}
	return out
}
