package modal

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"prodpred/internal/load"
	"prodpred/internal/workload"
)

// raceContract is what FitBIC owes its callers now that it abandons
// candidates, checked against the exhaustive search on one window:
//
//   - the same error, or none, on every window;
//   - where both pick the same k, the same model bit for bit;
//   - where they differ, FitBIC's model is bit for bit FitEM's for its k — one
//     of the exhaustive search's own candidates — and so has a BIC no better
//     than the exhaustive pick's.
//
// It reports whether the two agreed on k.
func raceContract(w []float64, kMax int) (agree bool, err error) {
	got, gotErr := FitBIC(w, kMax)
	want, wantErr := refFitBICExhaustive(w, kMax)
	if !sameError(gotErr, wantErr) {
		return false, fmt.Errorf("error %v, exhaustive search %v", gotErr, wantErr)
	}
	if want == nil {
		return true, nil
	}
	if got.K() == want.K() {
		return true, sameModel(got, want)
	}
	candidate, err := refFitEM(w, got.K())
	if err != nil {
		return false, fmt.Errorf("picked k=%d, which the reference cannot fit: %v", got.K(), err)
	}
	if err := sameModel(got, candidate); err != nil {
		return false, fmt.Errorf("picked k=%d, not the reference's fit of it: %v", got.K(), err)
	}
	if got.BIC(len(w)) < want.BIC(len(w)) {
		return false, fmt.Errorf("picked k=%d with BIC %v, below the exhaustive k=%d at %v", got.K(), got.BIC(len(w)), want.K(), want.BIC(len(w)))
	}
	return false, nil
}

// coldWindows returns what a monitor fits before its window has filled:
// prefixes of 24 to 63 samples of p's 5-second series.
func coldWindows(p load.Process) [][]float64 {
	series := make([]float64, fitWindow-1)
	for i := range series {
		series[i] = p.At(5 * float64(i))
	}
	var out [][]float64
	for _, n := range []int{24, 32, 40, 48, 56, 63} {
		out = append(out, series[:n])
	}
	return out
}

// raceCorpus is identityCorpus, edges included, enlarged to what the daemon
// fits in bulk: every 16th full window of each library scenario (two
// machines, three seeds) and of the single- and multi-mode presets, and the
// cold windows of all of them.
func raceCorpus(t *testing.T) map[string][][]float64 {
	t.Helper()
	corpus := identityCorpus(t)
	add := func(name string, p load.Process, err error) {
		if err != nil {
			t.Fatal(err)
		}
		corpus[name] = append(corpus[name], harvest(p, 544, 16)...)
		corpus["cold/"+name] = append(corpus["cold/"+name], coldWindows(p)...)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, name := range workload.Names() {
			sc, _ := workload.Lookup(name)
			for m := 0; m < 2; m++ {
				p, err := sc.Machine(m, seed)
				add("scenario/"+name, p, err)
			}
		}
		for m := int64(0); m < 2; m++ {
			multi, err := load.Platform2FourModeBursty(10*seed + m)
			add("platform2-bursty", multi, err)
			multi, err = liftedBursty(10*seed + m)
			add("bench-markov-modal", multi, err)
			single, err := load.LightLoad(10*seed + m)
			add("light-load", single, err)
			single, err = load.Platform1CenterMode(10*seed + m)
			add("platform1-center-mode", single, err)
		}
	}
	return corpus
}

// raceAgreementFloor is the share of windows on which FitBIC must pick the
// exhaustive search's k. Measured when the race went in: 0.96 to 0.99 on
// full windows by source, lower on cold ones (fewer samples, flatter BIC).
const raceAgreementFloor = 0.93

// TestFitBICRaceAgainstExhaustive holds FitBIC to raceContract on every
// window of raceCorpus and floors how often abandoning a candidate changes
// the pick.
func TestFitBICRaceAgainstExhaustive(t *testing.T) {
	corpus := raceCorpus(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	full, windows, agreed := 0, 0, 0
	for _, name := range names {
		n := 0
		for wi, w := range corpus[name] {
			agree, err := raceContract(w, 4)
			if err != nil {
				t.Fatalf("%s[%d]: %v", name, wi, err)
			}
			if agree {
				n++
			}
			if len(w) >= fitWindow {
				full++
			}
		}
		windows += len(corpus[name])
		agreed += n
		t.Logf("%-40s %4d of %4d windows agree with the exhaustive search", name, n, len(corpus[name]))
	}
	if full < 2000 {
		t.Errorf("corpus has %d full windows, want at least 2000", full)
	}
	share := float64(agreed) / float64(windows)
	t.Logf("overall: %d of %d (%.4f)", agreed, windows, share)
	if share < raceAgreementFloor {
		t.Errorf("FitBIC agrees with the exhaustive search on %.4f of windows, floor %.2f", share, raceAgreementFloor)
	}
}

// fuzzWindow reads a window off fuzz bytes: the first picks kMax in 1..6,
// then two bytes a sample, 8 to 96 of them, spread over [-0.25, 1.25] and
// clamped to [0, 1] the way the load processes clamp an availability — so
// exact ties at the ends, and ties anywhere when the bytes repeat.
func fuzzWindow(data []byte) (w []float64, kMax int, ok bool) {
	if len(data) < 1+2*minSamples {
		return nil, 0, false
	}
	kMax = 1 + int(data[0])%6
	data = data[1:]
	for len(data) >= 2 && len(w) < 96 {
		x := -0.25 + 1.5*float64(binary.LittleEndian.Uint16(data))/65535
		if x < 0 {
			x = 0
		}
		if x > 1 {
			x = 1
		}
		w = append(w, x)
		data = data[2:]
	}
	return w, kMax, true
}

// FuzzFitBICRace holds FitBIC to raceContract on arbitrary windows.
func FuzzFitBICRace(f *testing.F) {
	seed := func(kMax byte, xs ...uint16) {
		data := []byte{kMax}
		for _, x := range xs {
			data = binary.LittleEndian.AppendUint16(data, x)
		}
		f.Add(data)
	}
	// Two tight clusters; the same with ties; a window pinned to both clamps;
	// the three values of a 1/(1+users) share; a constant one; a short one.
	seed(3, 20000, 20100, 19900, 20050, 19950, 40000, 40100, 39900, 40050, 39950, 20020, 39980)
	seed(3, 20000, 20000, 20000, 20000, 40000, 40000, 40000, 40000, 20000, 40000, 20000, 40000)
	seed(3, 0, 0, 65535, 65535, 0, 65535, 30000, 0, 65535, 30000, 0, 65535, 100, 65000)
	seed(5, 54613, 32768, 25486, 54613, 54613, 32768, 25486, 25486, 54613, 32768, 54613, 25486, 32768, 54613, 32768, 25486)
	seed(2, 30000, 30000, 30000, 30000, 30000, 30000, 30000, 30000)
	seed(0, 1, 2, 3)
	f.Fuzz(func(t *testing.T, data []byte) {
		w, kMax, ok := fuzzWindow(data)
		if !ok {
			return
		}
		if _, err := raceContract(w, kMax); err != nil {
			t.Fatalf("kMax=%d %v: %v", kMax, w, err)
		}
	})
}

// TestFitAbandonsWhereReferenceDoes pins the abandonment line itself. Which
// candidates FitBIC abandons shows in its result only when one of them would
// have won, so a wrong line can hide behind the same picks; here the
// log-likelihood at which a fit starts being abandoned is bracketed by
// bisection on the live kernel, and the reference has to finish (with the
// same bits) just below it and give up just above.
func TestFitAbandonsWhereReferenceDoes(t *testing.T) {
	var f fitter
	fit := func(w []float64, k int, need float64) (*MixtureModel, error) {
		f.sorted = append(f.sorted[:0], w...)
		sort.Float64s(f.sorted)
		return f.fit(w, k, nil, need)
	}
	pinned, dips := 0, 0
	for name, windows := range identityCorpus(t) {
		stride := 12
		switch name {
		case "collapse":
			stride = 1 // where a reseed loses ground mid-climb
		case "slow":
			continue // 40 fits of 256 samples to emMaxIter each: seconds a window
		}
		for wi := 0; wi < len(windows); wi += stride {
			w := windows[wi]
			for k := 2; k <= 5; k++ {
				full, err := refFitEM(w, k)
				if err != nil {
					continue
				}
				// 2^21 nats bisected 40 times: the bracket ends 2e-6 apart.
				lo, hi := full.LogLikelihood-(1<<20), full.LogLikelihood+(1<<20)
				if _, err := fit(w, k, hi); err == nil {
					continue // done before raceMinIter: nothing abandons it
				}
				got, err := fit(w, k, lo)
				if err != nil {
					t.Fatalf("%s[%d] k=%d: abandoned %d nats below where it ends", name, wi, k, 1<<20)
				}
				for step := 0; step < 40; step++ {
					mid := lo + (hi-lo)/2
					if mm, err := fit(w, k, mid); err == nil {
						lo, got = mid, mm
					} else {
						hi = mid
					}
				}
				want, err := refFit(w, k, lo)
				if err != nil {
					t.Fatalf("%s[%d] k=%d: the reference gives up needing %v, the kernel only above %v", name, wi, k, lo, hi)
				}
				if err := sameModel(got, want); err != nil {
					t.Fatalf("%s[%d] k=%d need %v: %v", name, wi, k, lo, err)
				}
				if _, err := refFit(w, k, hi); err != errRefAbandoned {
					t.Fatalf("%s[%d] k=%d: the kernel gives up needing %v, the reference does not (%v)", name, wi, k, hi, err)
				}
				pinned++
				if hi < full.LogLikelihood {
					dips++
				}
			}
		}
	}
	// A fit given up on below where it ends climbed late or, in the collapse
	// cases, lost ground to a reseed on the way: the guard's cases are in here.
	t.Logf("%d fits pinned, %d of them abandoned below their final log-likelihood", pinned, dips)
	if pinned < 50 || dips == 0 {
		t.Error("the corpus no longer reaches the fits this test is there for")
	}
}
