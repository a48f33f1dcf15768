package predict_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"prodpred/internal/obs"
	"prodpred/internal/predict"
)

// TestCountersReadTheirOwners: through a seeded mix of predictions,
// batches, observations, discards, clock steps under sensor faults and a
// bandwidth monitor that first appears late, every scrape's predictions,
// observations, drift-event and fault-gap counters equal the state they
// count (the ledger's last ID, the tracker's outcome count and drift log,
// the monitors' missed samples) and the tally of the calls that made it.
func TestCountersReadTheirOwners(t *testing.T) {
	spec, err := predict.SimulatedSpec(2, 17)
	if err != nil {
		t.Fatal(err)
	}
	spec.Warmup = 300
	spec.Faults = []predict.FaultSpec{
		{Machine: 0, Drop: 0.1, Transient: 0.05, Outages: []predict.OutageSpec{{Start: 400, End: 460}}},
		{Machine: 2, Drop: 0.05},
	}
	metrics := obs.NewRegistry()
	reg := predict.NewRegistryWith(predict.RegistryOptions{Metrics: metrics})
	if err := reg.RegisterSpec(spec); err != nil {
		t.Fatal(err)
	}
	svc, err := reg.Lookup(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var (
		pending                        []uint64
		lastID                         uint64
		issued, observed, driftsCalled int
	)
	request := func(n int) predict.Request {
		req := baseRequest()
		req.Platform = spec.Name
		req.N = n
		return req
	}
	issue := func(p predict.Prediction) {
		if p.ID <= lastID {
			t.Fatalf("prediction id %d after %d", p.ID, lastID)
		}
		lastID = p.ID
		issued++
		pending = append(pending, p.ID)
	}
	sizes := []int{120, 160}
	for step := 0; step < 60; step++ {
		what := "predict"
		switch step % 5 {
		case 0:
			p, err := reg.Predict(request(sizes[rng.Intn(len(sizes))]))
			if err != nil {
				t.Fatal(err)
			}
			issue(p)
		case 1:
			what = "batch"
			reqs := make([]predict.Request, 1+rng.Intn(6))
			for i := range reqs {
				reqs[i] = request(sizes[rng.Intn(len(sizes))])
			}
			preds, errs := reg.PredictBatch(reqs)
			for i := range preds {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				issue(preds[i])
			}
		case 2:
			what = "observe"
			for k := rng.Intn(4); k > 0 && len(pending) > 0; k-- {
				i := rng.Intn(len(pending))
				// Near the mean early on, then a regime far above it.
				actual := 100 * (0.9 + 0.2*rng.Float64())
				if step >= 30 {
					actual *= 5
				}
				drifted, err := reg.Observe(spec.Name, pending[i], actual)
				if err != nil {
					t.Fatal(err)
				}
				observed++
				if drifted {
					driftsCalled++
				}
				pending = slices.Delete(pending, i, i+1)
			}
		case 3:
			what = "discard"
			if len(pending) > 0 {
				i := rng.Intn(len(pending))
				svc.Discard(pending[i])
				pending = slices.Delete(pending, i, i+1)
			}
		case 4:
			what = "advance"
			if err := svc.Advance(float64(5 + rng.Intn(25))); err != nil {
				t.Fatal(err)
			}
		}
		if step == 40 {
			// A grid size first asked for late: its bandwidth monitor
			// catches up from tick 0 on first use.
			what = "late bandwidth monitor"
			sizes = append(sizes, 240)
			p, err := reg.Predict(request(240))
			if err != nil {
				t.Fatal(err)
			}
			issue(p)
		}
		if uint64(issued) != lastID || svc.Accuracy().Observed != observed || svc.DriftCount() != driftsCalled {
			t.Fatalf("step %d (%s): %d issued under last id %d, %d observed vs tracker %d, %d drifts vs tracker %d",
				step, what, issued, lastID, observed, svc.Accuracy().Observed, driftsCalled, svc.DriftCount())
		}
		want := counterLines(svc, lastID)
		if got := gaugeLines(t, metrics, stateCounters...); !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): /metrics reads\n%s\nwant\n%s", step, what, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	if missed := svc.Readout().Reports[0].Gaps.Missed; driftsCalled == 0 || missed == 0 || observed == 0 {
		t.Fatalf("the run never exercised the counters: %d drifts, %d missed on machine 0, %d observed",
			driftsCalled, missed, observed)
	}
}
