package modal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prodpred/internal/load"
	"prodpred/internal/workload"
)

// fitWindow mirrors what the nws mixture forecaster fits: the trailing 64
// of the samples a 5-second sensor has taken.
const fitWindow = 64

// harvest samples p every 5 virtual seconds and returns the trailing
// fitWindow at every stride-th sample.
func harvest(p load.Process, samples, stride int) [][]float64 {
	var series []float64
	var out [][]float64
	for i := 0; i < samples; i++ {
		series = append(series, p.At(5*float64(i)))
		if len(series) >= fitWindow && len(series)%stride == 0 {
			out = append(out, series[len(series)-fitWindow:])
		}
	}
	return out
}

// liftedBursty is bench/spec.go's burstyLoad: platform2-bursty with its modes
// lifted off the floor.
func liftedBursty(seed int64) (*load.Sequence, error) {
	return load.NewMarkovModal(
		[]load.ModeSpec{{Mean: 0.25, Sigma: 0.03}, {Mean: 0.45, Sigma: 0.04}, {Mean: 0.68, Sigma: 0.04}, {Mean: 0.90, Sigma: 0.03}},
		[]float64{0.2, 0.3, 0.3, 0.2}, 0.08, 0.7, 1.0, seed)
}

// identityCorpus is what the rewritten kernel is held to: windows of every
// load the serving stack and the benchmark fit mixtures to, and the edges of
// the algorithm.
func identityCorpus(t *testing.T) map[string][][]float64 {
	t.Helper()
	corpus := map[string][][]float64{}
	for _, name := range workload.Names() {
		sc, _ := workload.Lookup(name)
		for m := 0; m < 2; m++ {
			p, err := sc.Machine(m, 7)
			if err != nil {
				t.Fatal(err)
			}
			corpus["scenario/"+name] = append(corpus["scenario/"+name], harvest(p, 640, 48)...)
		}
	}
	bursty, err := load.Platform2FourModeBursty(3)
	if err != nil {
		t.Fatal(err)
	}
	corpus["platform2-bursty"] = harvest(bursty, 1200, 16)
	lifted, err := liftedBursty(11)
	if err != nil {
		t.Fatal(err)
	}
	corpus["bench-markov-modal"] = harvest(lifted, 1200, 16)

	// Point masses (a 1/(1+users) share takes a handful of exact values)
	// drive a surplus component's responsibility to nothing: it collapses
	// and is reseeded.
	rng := rand.New(rand.NewSource(5))
	var collapse [][]float64
	for c := 0; c < 24; c++ {
		w := make([]float64, fitWindow)
		for i := range w {
			w[i] = 1 / float64(1+rng.Intn(3))
		}
		collapse = append(collapse, w)
	}
	corpus["collapse"] = collapse

	constant := make([]float64, fitWindow)
	for i := range constant {
		constant[i] = 0.37
	}
	corpus["constant"] = [][]float64{constant}
	corpus["short"] = [][]float64{{0.1, 0.2, 0.3}, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}, {}}
	// Broad overlapping data fitted with too many components converges too
	// slowly for emTol and runs into emMaxIter.
	var slow [][]float64
	for c := 0; c < 6; c++ {
		w := make([]float64, 4*fitWindow)
		for i := range w {
			w[i] = rng.Float64() + 0.2*rng.NormFloat64()
		}
		slow = append(slow, w)
	}
	corpus["slow"] = slow
	return corpus
}

func sameModel(a, b *MixtureModel) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("one model is nil: %v vs %v", a, b)
	}
	if a == nil {
		return nil
	}
	if a.Iterations != b.Iterations || a.Converged != b.Converged {
		return fmt.Errorf("iterations/converged %d/%v vs %d/%v", a.Iterations, a.Converged, b.Iterations, b.Converged)
	}
	if math.Float64bits(a.LogLikelihood) != math.Float64bits(b.LogLikelihood) {
		return fmt.Errorf("log-likelihood %v vs %v", a.LogLikelihood, b.LogLikelihood)
	}
	if len(a.Modes) != len(b.Modes) {
		return fmt.Errorf("%d modes vs %d", len(a.Modes), len(b.Modes))
	}
	for i := range a.Modes {
		x, y := a.Modes[i], b.Modes[i]
		if math.Float64bits(x.Mean) != math.Float64bits(y.Mean) ||
			math.Float64bits(x.Sigma) != math.Float64bits(y.Sigma) ||
			math.Float64bits(x.Weight) != math.Float64bits(y.Weight) {
			return fmt.Errorf("mode %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

func sameError(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// TestFitEMMatchesReference holds the rewritten EM kernel to the plain loop
// it replaced, bit for bit, on every corpus window and every k the BIC
// selection tries — through fresh scratch and through scratch reused across
// all of them, which is what the pool hands a periodic caller — and the BIC
// selection to the reference's race of the same candidates.
func TestFitEMMatchesReference(t *testing.T) {
	// The two calls the kernel skips must be exact where it skips them.
	if math.Exp(0) != 1 || math.Log(1) != 0 {
		t.Fatalf("math.Exp(0)=%v math.Log(1)=%v: the kernel's shortcuts are not exact here", math.Exp(0), math.Log(1))
	}
	var reused fitter
	fits := 0
	reseedsBy, unconvergedBy := map[string]int{}, map[string]int{}
	for name, windows := range identityCorpus(t) {
		for wi, w := range windows {
			for k := 0; k <= 5; k++ {
				before := refReseeds
				want, wantErr := refFitEM(w, k)
				reseedsBy[name] += refReseeds - before
				for how, fit := range map[string]func([]float64, int) (*MixtureModel, error){"fresh": new(fitter).fitEM, "reused": reused.fitEM, "pooled": FitEM} {
					got, err := fit(w, k)
					if !sameError(err, wantErr) {
						t.Fatalf("%s[%d] k=%d %s: error %v, reference %v", name, wi, k, how, err, wantErr)
					}
					if err := sameModel(got, want); err != nil {
						t.Fatalf("%s[%d] k=%d %s: %v", name, wi, k, how, err)
					}
				}
				if want != nil {
					fits++
					if !want.Converged {
						unconvergedBy[name]++
						if want.Iterations != emMaxIter+1 {
							t.Fatalf("%s[%d] k=%d: unconverged after %d iterations", name, wi, k, want.Iterations)
						}
					}
				}
			}
			want, wantErr := refFitBIC(w, 4)
			for how, fit := range map[string]func([]float64, int) (*MixtureModel, error){"fresh": new(fitter).fitBIC, "reused": reused.fitBIC, "pooled": FitBIC} {
				got, err := fit(w, 4)
				if !sameError(err, wantErr) {
					t.Fatalf("%s[%d] FitBIC %s: error %v, reference %v", name, wi, how, err, wantErr)
				}
				if err := sameModel(got, want); err != nil {
					t.Fatalf("%s[%d] FitBIC %s: %v", name, wi, how, err)
				}
			}
		}
	}
	// The corpus has to reach the branches it is there for.
	if reseedsBy["collapse"] == 0 {
		t.Error("no collapse case reseeded a component")
	}
	if unconvergedBy["slow"] == 0 {
		t.Error("no slow case ran into emMaxIter")
	}
	t.Logf("%d fits compared; ran to emMaxIter by source %v; reseeds by source %v", fits, unconvergedBy, reseedsBy)
}

// A fit on reused scratch allocates the model it returns and nothing else.
func TestFitterReusesItsBuffers(t *testing.T) {
	p, err := load.Platform2FourModeBursty(3)
	if err != nil {
		t.Fatal(err)
	}
	w := harvest(p, fitWindow, fitWindow)[0]
	var f fitter
	if _, err := f.fitBIC(w, 4); err != nil {
		t.Fatal(err)
	}
	// Per fit: the model, its modes, and sort.Slice's closure and swapper.
	if allocs := testing.AllocsPerRun(20, func() { _, _ = f.fitEM(w, 4) }); allocs > 5 {
		t.Errorf("a fit on reused scratch allocates %v times", allocs)
	}
}
