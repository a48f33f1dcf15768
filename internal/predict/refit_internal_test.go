package predict

import (
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"prodpred/internal/nws"
	"prodpred/internal/obs"
)

// TestBackgroundRefitReaders: the mixture refits a clock step leaves to the
// background race the reads that need their fits — a prediction with
// levels, a Readout, a snapshot export — and a Retire, after fleet-wide
// waves and after single-tenant steps. -race is the check that the refits
// share nothing with them; the fleet then reads the same bits as one
// stepped alike whose reads never overlap.
func TestBackgroundRefitReaders(t *testing.T) {
	metrics := obs.NewRegistry()
	raced := liveFleet(t, 6, RegistryOptions{Metrics: metrics})
	calm := liveFleet(t, 6, RegistryOptions{})
	names := raced.Names()
	req := Request{N: 800, Iterations: 10, Levels: []float64{0.5, 0.9}}
	// 48 rounds take every monitor through three refits, one of them a race
	// of the model orders.
	for round := 0; round < 48; round++ {
		step := func(reg *Registry) error {
			if round%3 == 2 {
				svc, err := reg.Lookup(names[round%(len(names)-1)]) // never the retired one
				if err != nil {
					return err
				}
				return svc.Advance(nws.DefaultPeriod)
			}
			_, _, err := reg.AdvanceAll(nws.DefaultPeriod)
			return err
		}
		if err := step(calm); err != nil {
			t.Fatal(err)
		}
		for _, svc := range calm.Services() {
			if _, err := svc.Predict(req); err != nil {
				t.Fatal(err)
			}
		}
		if err := step(raced); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		read := func(what string, f func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := f(); err != nil {
					t.Errorf("round %d: %s: %v", round, what, err)
				}
			}()
		}
		for _, svc := range raced.Services() {
			read("predict "+svc.Name(), func() error {
				_, err := svc.Predict(req)
				return err
			})
			read("readout "+svc.Name(), func() error {
				if svc.Readout().Reports == nil {
					return fmt.Errorf("no reports")
				}
				return nil
			})
		}
		read("snapshot", func() error { return raced.WriteSnapshot(io.Discard) })
		if round == 20 {
			retired := names[len(names)-1]
			read("retire", func() error { return raced.Retire(retired) })
			if err := calm.Retire(retired); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
	}
	WaitRefits()

	if got, want := raced.Names(), calm.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("roster %v, want %v", got, want)
	}
	for _, want := range calm.Services() {
		got, err := raced.Lookup(want.Name())
		if err != nil {
			t.Fatal(err)
		}
		if g, w := got.Readout(), want.Readout(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: readout %+v, want %+v", want.Name(), g, w)
		}
		g, err := got.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Value, w.Value) || !reflect.DeepEqual(g.Dist, w.Dist) {
			t.Errorf("%s: prediction %+v %+v, want %+v %+v", want.Name(), g.Value, g.Dist, w.Value, w.Dist)
		}
	}
	var refits int64
	for _, by := range []nws.RefitBy{nws.RefitBackground, nws.RefitReader, nws.RefitStep} {
		refits += metrics.NewCounterVec(MetricMixtureRefits, "", "platform", "by").With(names[0], by.String()).Value()
	}
	if refits == 0 {
		t.Errorf("%s counted no refit on %s", MetricMixtureRefits, names[0])
	}
}
