package modal

import (
	"math"
	"sort"
	"testing"
)

// TestRefitMatchesReference holds Refit to the reference loop started from
// the same modes, bit for bit, on every identity-corpus window and every
// order the BIC selection tries, through the pool, fresh scratch and scratch
// reused across all of them. The modes it starts from are the ones a
// forecaster has in hand: the fit of the window before (the corpus lists
// each source's windows in the order it took them), the window's own fit,
// and, on the collapse cases, a mode with no weight and one with no width.
func TestRefitMatchesReference(t *testing.T) {
	var reused fitter
	fits, warmIters, coldIters := 0, 0, 0
	for name, windows := range identityCorpus(t) {
		for wi, w := range windows {
			for k := 1; k <= 5; k++ {
				cold, err := refFitEM(w, k)
				if err != nil {
					continue
				}
				seeds := map[string][]Mode{"own fit": cold.Modes}
				if wi > 0 {
					if prev, err := refFitEM(windows[wi-1], k); err == nil {
						seeds["previous fit"] = prev.Modes
					}
				}
				if name == "collapse" {
					starved := append([]Mode(nil), cold.Modes...)
					starved[0].Weight = 0
					flat := append([]Mode(nil), cold.Modes...)
					flat[len(flat)-1].Sigma = 0
					seeds["no weight"], seeds["no width"] = starved, flat
				}
				for from, seed := range seeds {
					before := append([]Mode(nil), seed...)
					want, wantErr := refRefit(w, seed)
					for how, fit := range map[string]func([]float64, []Mode) (*MixtureModel, error){
						"pooled": Refit,
						"fresh": func(xs []float64, from []Mode) (*MixtureModel, error) {
							return new(fitter).fit(xs, len(from), from, math.Inf(-1))
						},
						"reused": func(xs []float64, from []Mode) (*MixtureModel, error) {
							return reused.fit(xs, len(from), from, math.Inf(-1))
						},
					} {
						got, err := fit(w, seed)
						if !sameError(err, wantErr) {
							t.Fatalf("%s[%d] k=%d from %s %s: error %v, reference %v", name, wi, k, from, how, err, wantErr)
						}
						if err := sameModel(got, want); err != nil {
							t.Fatalf("%s[%d] k=%d from %s %s: %v", name, wi, k, from, how, err)
						}
					}
					for j := range seed {
						if seed[j] != before[j] {
							t.Fatalf("%s[%d] k=%d from %s: Refit wrote to the modes it started from", name, wi, k, from)
						}
					}
					if want != nil && from == "previous fit" {
						fits++
						warmIters += want.Iterations
						coldIters += cold.Iterations
					}
				}
			}
		}
	}
	if fits == 0 {
		t.Fatal("no window was refitted from its predecessor's fit")
	}
	t.Logf("%d refits from the window before: %.1f iterations each, %.1f from k-means", fits, float64(warmIters)/float64(fits), float64(coldIters)/float64(fits))
}

// TestRefitRejectsBadSeeds: no modes, or a mode that is not a finite normal
// with a non-negative weight, is an error, not a fit.
func TestRefitRejectsBadSeeds(t *testing.T) {
	w := identityCorpus(t)["platform2-bursty"][0]
	for _, from := range [][]Mode{
		nil,
		{{Mean: math.NaN(), Sigma: 0.1, Weight: 1}},
		{{Mean: 0.5, Sigma: math.Inf(1), Weight: 1}},
		{{Mean: 0.5, Sigma: 0.1, Weight: 1}, {Mean: 0.7, Sigma: 0.1, Weight: -0.5}},
	} {
		if mm, err := Refit(w, from); err == nil {
			t.Errorf("Refit from %+v: %+v, want an error", from, mm)
		}
	}
}

// consecutive reports whether next is prev moved on by stride samples: the
// refit a forecaster makes stride rounds after the fit it has in hand.
func consecutive(prev, next []float64, stride int) bool {
	if len(prev) != fitWindow || len(next) != fitWindow {
		return false
	}
	for i := 0; i+stride < fitWindow; i++ {
		if math.Float64bits(prev[i+stride]) != math.Float64bits(next[i]) {
			return false
		}
	}
	return true
}

// warmTolerance is how far, in nats, a warm refit's log-likelihood may fall
// short of the cold fit's at the same order and still count as reaching it:
// both stop at emTol, so one optimum reached from two starts reads up to
// ~1e-6 apart.
const warmTolerance = 1e-3

// warmAgreementFloor is the share of window pairs on which the warm refit must
// reach the cold fit's log-likelihood within warmTolerance. Measured when the
// warm start went in: 0.935 over the corpus (0.81 on cohort-mix, 0.87 on
// diurnal-web, all of light-load and platform1-center-mode). The misses are
// windows with two optima at the order the race chose sixteen samples
// earlier — most often a component on the exact ties of a clamped or
// 1/(1+users) load — where each start stays in the one nearer it; the warm
// start is ahead by more than warmTolerance on 0.16 of the pairs and behind
// on 0.065, 6.5 nats ahead on the mean.
const warmAgreementFloor = 0.92

// TestRefitWarmAgainstCold is the warm start's contract with the cold fit it
// replaces between races: on every pair of raceCorpus windows 16 samples
// apart, EM started from the earlier window's BIC pick, on the later window,
// reaches a log-likelihood no worse than FitEM's from k-means at the same
// order, less warmTolerance, on at least warmAgreementFloor of the pairs; it
// is ahead more often than behind; and it takes fewer iterations on the
// whole.
func TestRefitWarmAgainstCold(t *testing.T) {
	corpus := raceCorpus(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	pairs, reached, ahead, warmIters, coldIters := 0, 0, 0, 0, 0
	var gain float64
	for _, name := range names {
		windows := corpus[name]
		n, ok := 0, 0
		for wi := 1; wi < len(windows); wi++ {
			prev, next := windows[wi-1], windows[wi]
			if !consecutive(prev, next, 16) {
				continue
			}
			picked, err := FitBIC(prev, 4)
			if err != nil {
				continue
			}
			cold, coldErr := FitEM(next, picked.K())
			warm, warmErr := Refit(next, picked.Modes)
			if !sameError(warmErr, coldErr) {
				t.Fatalf("%s[%d]: warm refit error %v, cold fit %v", name, wi, warmErr, coldErr)
			}
			if coldErr != nil {
				continue
			}
			n++
			warmIters += warm.Iterations
			coldIters += cold.Iterations
			d := warm.LogLikelihood - cold.LogLikelihood
			gain += d
			if d >= -warmTolerance {
				ok++
			}
			if d > warmTolerance {
				ahead++
			}
		}
		if n > 0 {
			t.Logf("%-40s %4d of %4d pairs reach the cold fit", name, ok, n)
		}
		pairs += n
		reached += ok
	}
	if pairs < 1000 {
		t.Fatalf("corpus has %d consecutive pairs, want at least 1000", pairs)
	}
	share := float64(reached) / float64(pairs)
	t.Logf("overall: %d of %d (%.4f) reach it, %d ahead, %d behind, %+.2f nats on the mean; %.1f iterations warm, %.1f cold",
		reached, pairs, share, ahead, pairs-reached, gain/float64(pairs), float64(warmIters)/float64(pairs), float64(coldIters)/float64(pairs))
	if share < warmAgreementFloor {
		t.Errorf("warm refits reach the cold fit on %.4f of pairs, floor %.2f", share, warmAgreementFloor)
	}
	if ahead <= pairs-reached {
		t.Errorf("warm refits are ahead of the cold fit on %d pairs and behind on %d", ahead, pairs-reached)
	}
	if warmIters >= coldIters {
		t.Errorf("warm refits took %d iterations, cold fits %d", warmIters, coldIters)
	}
}
