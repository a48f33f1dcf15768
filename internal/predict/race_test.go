package predict_test

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"prodpred/internal/calib"
	"prodpred/internal/predict"
	"prodpred/internal/stochastic"
)

// stressFaults schedules every fault class: drops and spikes everywhere,
// transients, and an outage window on machine 0 that the stress rounds
// advance straight through.
func stressFaults(machines int) []predict.FaultSpec {
	fs := make([]predict.FaultSpec, machines)
	for m := range fs {
		fs[m] = predict.FaultSpec{Machine: m, Drop: 0.2, Transient: 0.02, Spike: 0.05, SpikeFactor: 4}
	}
	fs[0].Outages = []predict.OutageSpec{{Start: 150, End: 260}}
	return fs
}

// runStressRounds fires `workers` parallel Predict calls per round against
// one service while the clock advances between rounds and faults are
// injected throughout. Returns the per-round, per-worker predictions.
func runStressRounds(t *testing.T, seed int64, rounds, workers int) ([][]stochastic.Value, *predict.Service) {
	t.Helper()
	svc := burstyService(t, seed, 100, stressFaults(4)...)
	req := baseRequest()
	out := make([][]stochastic.Value, rounds)
	for r := range out {
		out[r] = make([]stochastic.Value, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				pred, err := svc.Predict(req)
				if err != nil {
					t.Errorf("round %d worker %d: %v", r, w, err)
					return
				}
				out[r][w] = pred.Value
			}(w)
		}
		wg.Wait()
		if err := svc.Advance(37); err != nil {
			t.Fatal(err)
		}
	}
	return out, svc
}

// TestConcurrentPredictDeterministic is the -race stress test: parallel
// Predict calls against one Service while the clock advances and sensor
// faults are injected must (a) agree within a round — every call at the
// same virtual time sees the same monitor state — and (b) be bit-identical
// across two same-seed services, because sensors and fault decisions are
// pure functions of virtual time.
func TestConcurrentPredictDeterministic(t *testing.T) {
	const rounds, workers = 6, 8
	a, svcA := runStressRounds(t, 21, rounds, workers)
	b, _ := runStressRounds(t, 21, rounds, workers)
	for r := 0; r < rounds; r++ {
		for w := 1; w < workers; w++ {
			if a[r][w] != a[r][0] {
				t.Errorf("round %d: worker %d diverged: %v vs %v", r, w, a[r][w], a[r][0])
			}
		}
		if a[r][0] != b[r][0] {
			t.Errorf("round %d: runs diverged: %v vs %v", r, a[r][0], b[r][0])
		}
	}
	// The outage window (150-260) sits inside the advanced range
	// (100..322), so the fault machinery demonstrably fired.
	missed := 0
	for _, rep := range svcA.Readout().Reports {
		missed += rep.Gaps.Missed
	}
	if missed == 0 {
		t.Error("stress run injected no measurement gaps")
	}
}

// TestConcurrentMixedOps hammers every public method from many goroutines
// purely for the race detector (determinism is not asserted here — the clock
// moves mid-flight): everything that meets on a service's one monitor lock
// and on the registry's one lock must be data-race-free and deadlock-free.
//
// On one service: predictions whose grid sizes several goroutines touch for
// the first time at once (each builds a bandwidth monitor under the monitor
// lock), observes, reports, gap counters, fleet snapshots and clock advances.
// On the registry, meanwhile: tenants registered, looked up cold from eight
// goroutines at once (one build, one *Service), retired, listed and ticked.
func TestConcurrentMixedOps(t *testing.T) {
	reg := predict.NewRegistry()
	if err := reg.RegisterSpec(snapshotSpec(t)); err != nil {
		t.Fatal(err)
	}
	svc, err := reg.Lookup("") // the sole platform, until the registry leg adds more
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := baseRequest()
			for i := 0; i < 10; i++ {
				req.N = 120 + 40*i // every worker's i-th size is a first touch for all four
				p, err := svc.Predict(req)
				if err != nil {
					t.Errorf("predict: %v", err)
					continue
				}
				// Immediately close the loop on our own prediction, racing
				// the other observers and the clock.
				if _, err := svc.Observe(p.ID, p.Value.Mean); err != nil {
					t.Errorf("observe: %v", err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := svc.Advance(13); err != nil {
				t.Errorf("advance: %v", err)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			svc.Readout()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			svc.Now()
			svc.Accuracy()
			svc.Outstanding()
			if err := reg.WriteSnapshot(io.Discard); err != nil {
				t.Errorf("snapshot: %v", err)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, spec := range predict.FleetSpecs(6, 3) {
			spec.Warmup = 30
			if err := reg.RegisterSpec(spec); err != nil {
				t.Errorf("register: %v", err)
				continue
			}
			if _, err := reg.Lookup(""); err == nil {
				t.Error("empty-name lookup resolved on a multi-tenant registry")
			}
			built := make([]*predict.Service, 8)
			var cold sync.WaitGroup
			for i := range built {
				cold.Add(1)
				go func() {
					defer cold.Done()
					b, err := reg.Lookup(spec.Name)
					if err != nil {
						t.Errorf("cold lookup: %v", err)
					}
					built[i] = b
				}()
			}
			cold.Wait()
			for _, b := range built {
				if b != built[0] || b == nil || b.Name() != spec.Name {
					t.Errorf("eight cold lookups of %s built %v", spec.Name, built)
					break
				}
			}
			if _, _, err := reg.AdvanceAll(5); err != nil {
				t.Errorf("advance all: %v", err)
			}
			if err := reg.Retire(spec.Name); err != nil {
				t.Errorf("retire: %v", err)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			names := reg.Names()
			if !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(names) {
				t.Errorf("Names() not sorted and duplicate-free: %v", names)
			}
			if live := reg.Services(); len(live) > len(names)+1 { // a retire may fall between the two reads
				t.Errorf("%d live services of %d registered", len(live), len(names))
			}
		}
	}()
	wg.Wait()
	r := svc.Readout()
	total := 0
	for _, rep := range r.Reports {
		total += rep.Gaps.Missed
	}
	if total == 0 {
		t.Error("stress run injected no measurement gaps")
	}
	if r.BWGaps.Clean == 0 {
		t.Error("stress run built no bandwidth monitor")
	}
}

// TestConcurrentObservePredictDeterministic closes the loop under -race:
// every round fans out parallel Predict calls, then observes each returned
// prediction in ID order with a deterministic synthetic runtime. Same seed
// + same observation order must leave two services with byte-identical
// calibration state, and the calibrated intervals themselves must agree.
func TestConcurrentObservePredictDeterministic(t *testing.T) {
	const rounds, workers = 5, 8
	run := func() (string, []stochastic.Value) {
		svc := burstyService(t, 29, 100, stressFaults(4)...)
		req := baseRequest()
		var vals []stochastic.Value
		for r := 0; r < rounds; r++ {
			preds := make([]predict.Prediction, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					p, err := svc.Predict(req)
					if err != nil {
						t.Errorf("round %d worker %d: %v", r, w, err)
						return
					}
					preds[w] = p
				}(w)
			}
			wg.Wait()
			// Fix the observation order: ascending prediction ID. Which
			// goroutine drew which ID is scheduler-dependent, but the ID
			// sequence (and each prediction's value at this virtual time)
			// is not.
			sort.Slice(preds, func(i, j int) bool { return preds[i].ID < preds[j].ID })
			for _, p := range preds {
				// Synthetic runtime biased off the mean so the calibrator
				// has a real error signal to work with.
				actual := p.Raw.Mean * (1.02 + 0.05*float64(r))
				if _, err := svc.Observe(p.ID, actual); err != nil {
					t.Fatal(err)
				}
				vals = append(vals, p.Value)
			}
			if err := svc.Advance(37); err != nil {
				t.Fatal(err)
			}
		}
		return fmt.Sprintf("%#v", svc.Accuracy()), vals
	}
	stateA, valsA := run()
	stateB, valsB := run()
	if stateA != stateB {
		t.Errorf("same-seed calibration state diverged:\n%s\nvs\n%s", stateA, stateB)
	}
	for i := range valsA {
		if valsA[i] != valsB[i] {
			t.Errorf("prediction %d diverged: %v vs %v", i, valsA[i], valsB[i])
		}
	}
	// After MinObserved outcomes the calibrator must actually have moved
	// off the identity scale — otherwise this test proves nothing.
	if !strings.Contains(stateA, "Observed:40") {
		t.Errorf("state did not record all outcomes: %s", stateA)
	}
}

// TestCalibrationOverlayStress: a prediction's calibrated value and its
// calibrated quantile grid come from one state of the platform's tracker,
// even while Observe moves it. One goroutine runs predict → observe round
// trips, so the tracker's outcome sequence is known; readers predict the
// same shape meanwhile. Replayed on a twin tracker, every state gives one
// (value, grid) pair, and each reader's answer must be one of them — never
// the value of one state with the grid of the next.
func TestCalibrationOverlayStress(t *testing.T) {
	const observes, readers = 600, 3
	svc := burstyService(t, 17, 300)
	req := baseRequest()
	req.Distribution = true
	rng := rand.New(rand.NewSource(5))
	var outcomes []calib.Outcome
	var done atomic.Bool
	answers := make([][]predict.Prediction, readers)
	var wg sync.WaitGroup
	for r := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				p, err := svc.Predict(req)
				if err != nil {
					t.Error(err)
					return
				}
				svc.Discard(p.ID)
				answers[r] = append(answers[r], p)
			}
		}()
	}
	for i := 0; i < observes; i++ {
		p, err := svc.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		// Actuals spread well past the interval, so nearly every outcome
		// moves the scale, the shift or a quantile multiplier.
		actual := p.Raw.Mean * math.Exp(0.4*rng.NormFloat64())
		if _, err := svc.Observe(p.ID, actual); err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, calib.Outcome{ID: p.ID, Time: p.Time, Raw: p.Raw,
			Calibrated: p.Value, Actual: actual, RawQuantiles: p.Dist.Raw})
	}
	done.Store(true)
	wg.Wait()

	pair := func(v stochastic.Value, grid []float64) string { return fmt.Sprint(v, grid) }
	states := map[string]bool{}
	twin, _ := calib.New(calib.Config{})
	raw, rawQ := outcomes[0].Raw, outcomes[0].RawQuantiles
	for i := 0; ; i++ {
		v, grid := twin.Overlay(raw, rawQ)
		states[pair(v, grid)] = true
		if i == len(outcomes) {
			break
		}
		twin.Observe(outcomes[i])
	}
	n := 0
	for _, ps := range answers {
		for _, p := range ps {
			n++
			if p.Raw != raw || !slices.Equal(p.Dist.Raw, rawQ) {
				t.Fatalf("prediction %d answers another raw shape than the round trips", p.ID)
			}
			if !states[pair(p.Value, p.Dist.Calibrated)] {
				t.Errorf("prediction %d: value %v and grid %v come from no single tracker state", p.ID, p.Value, p.Dist.Calibrated)
			}
		}
	}
	t.Logf("%d reader answers over %d tracker states", n, len(states))
}
