package predict

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"prodpred/internal/nws"
	"prodpred/internal/obs"
)

// catchUpFleet is n live FleetSpecs tenants with warm-ups staggered by one
// tick, so their refits fall due on different waves, sensor faults on every
// third one, so the gap counters have something to count, and two grid
// sizes asked, so each has two bandwidth monitors.
func catchUpFleet(t *testing.T, n int, metrics *obs.Registry) *Registry {
	t.Helper()
	reg := NewRegistryWith(RegistryOptions{Metrics: metrics})
	for i, spec := range FleetSpecs(n, 5) {
		spec.Warmup = 120 + nws.DefaultPeriod*float64(i%4)
		if i%3 == 0 {
			spec.Faults = []FaultSpec{{Machine: 0, Drop: 0.1, Transient: 0.05, Outages: []OutageSpec{{Start: 150, End: 190}}}}
		}
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{400, 800} {
			if _, err := reg.Predict(Request{Platform: spec.Name, N: size, Iterations: 10}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return reg
}

// catchUpView is what a reader can see of one tenant at one tick.
type catchUpView struct {
	Readout Readout
	Pred    Prediction // ID zeroed
}

var catchUpReq = Request{N: 800, Iterations: 10, Levels: []float64{0.5, 0.9}}

// prediction predicts req on s, forgets the ID it was issued and returns
// the prediction without it, so that two fleets that predict alike keep
// equal ledgers whatever tick each prediction saw.
func prediction(t *testing.T, s *Service, req Request) Prediction {
	t.Helper()
	p, err := s.Predict(req)
	if err != nil {
		t.Errorf("%s: %v", s.Name(), err)
	}
	s.Discard(p.ID)
	p.ID = 0
	return p
}

func viewOf(t *testing.T, s *Service) catchUpView {
	return catchUpView{Readout: s.Readout(), Pred: prediction(t, s, catchUpReq)}
}

// platformLines returns the lines of a /metrics scrape of reg's metrics
// that belong to the named families and one of names' platforms.
func platformLines(t *testing.T, metrics *obs.Registry, names []string, families ...string) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		line := sc.Text()
		for _, f := range families {
			for _, name := range names {
				if strings.HasPrefix(line, f+"{") && strings.Contains(line, fmt.Sprintf("platform=%q", name)) {
					lines = append(lines, line)
				}
			}
		}
	}
	return lines
}

// TestAdvanceAllCatchUpRace: fleet-wide waves leave every tenant's monitors
// to the background, and whatever races them — predictions (one at a time
// and batched), readouts, gap counters, /metrics scrapes, snapshot writes,
// single-tenant steps and a retire — sees exactly what it would see of a
// twin fleet whose every tenant was stepped eagerly: the view either side
// of the step while the wave runs, and the eager view, image and scraped
// counters once it has returned, with the catch-ups still under way.
// Back-to-back waves with no drain between them keep the workers bounded
// and the queue no longer than the fleet, and once drained leave every
// monitor at its clock and the eager twin's image.
func TestAdvanceAllCatchUpRace(t *testing.T) {
	t.Run("traffic", func(t *testing.T) {
		const tenants, rounds, retireAt = 6, 24, 10
		metrics, eagerMetrics := obs.NewRegistry(), obs.NewRegistry()
		raced := catchUpFleet(t, tenants, metrics)
		eager := catchUpFleet(t, tenants, eagerMetrics)
		names := raced.Names()
		scraped := []string{MetricFaultGapSamples, MetricVirtualTime, MetricPredictions}
		for round := 0; round < rounds; round++ {
			single := ""
			if round%4 == 3 {
				single = names[round%(tenants-1)] // never the retired one
			}
			retire := ""
			if round == retireAt {
				retire = names[tenants-1]
			}

			// The eager twin's views either side of its step: every tenant
			// stepped on its own, monitors and all.
			before, after := map[string]catchUpView{}, map[string]catchUpView{}
			for _, svc := range eager.Services() {
				before[svc.Name()] = viewOf(t, svc)
				if single == "" || svc.Name() == single {
					if err := svc.Advance(nws.DefaultPeriod); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, svc := range eager.Services() {
				after[svc.Name()] = viewOf(t, svc)
			}
			if retire != "" {
				if err := eager.Retire(retire); err != nil {
					t.Fatal(err)
				}
			}

			// The raced fleet takes the same step with everything racing it.
			seen := func(name, what string, got any, pick func(catchUpView) any) {
				if !reflect.DeepEqual(got, pick(before[name])) && !reflect.DeepEqual(got, pick(after[name])) {
					t.Errorf("round %d %s: %s %+v is neither side of the step: %+v or %+v",
						round, name, what, got, pick(before[name]), pick(after[name]))
				}
			}
			var wg sync.WaitGroup
			run := func(f func()) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					f()
				}()
			}
			run(func() {
				var err error
				if single == "" {
					_, _, err = raced.AdvanceAll(nws.DefaultPeriod)
				} else if svc, lerr := raced.Lookup(single); lerr != nil {
					err = lerr
				} else {
					err = svc.Advance(nws.DefaultPeriod)
				}
				if err != nil {
					t.Errorf("round %d: step: %v", round, err)
				}
			})
			services := raced.Services()
			for _, svc := range services {
				name := svc.Name()
				run(func() { seen(name, "readout", svc.Readout(), func(v catchUpView) any { return v.Readout }) })
				run(func() {
					seen(name, "prediction", prediction(t, svc, catchUpReq), func(v catchUpView) any { return v.Pred })
				})
			}
			run(func() {
				// Not the tenant being retired: the batch's lookup of it
				// would race the retire.
				var reqs []Request
				for _, svc := range services {
					if name := svc.Name(); name != retire {
						req := catchUpReq
						req.Platform = name
						reqs = append(reqs, req)
					}
				}
				preds, errs, svcs := make([]Prediction, len(reqs)), make([]error, len(reqs)), make([]*Service, len(reqs))
				raced.PredictInto(reqs, preds, errs, svcs)
				for i, p := range preds {
					if errs[i] != nil {
						t.Errorf("round %d %s: batch: %v", round, reqs[i].Platform, errs[i])
						continue
					}
					svcs[i].Discard(p.ID)
					p.ID = 0
					seen(reqs[i].Platform, "batched prediction", p, func(v catchUpView) any { return v.Pred })
				}
			})
			run(func() {
				if err := metrics.WriteText(io.Discard); err != nil {
					t.Errorf("round %d: scrape: %v", round, err)
				}
			})
			run(func() {
				if err := raced.WriteSnapshot(io.Discard); err != nil {
					t.Errorf("round %d: snapshot: %v", round, err)
				}
			})
			if retire != "" {
				run(func() {
					if err := raced.Retire(retire); err != nil {
						t.Errorf("round %d: retire: %v", round, err)
					}
				})
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}

			// A second wave with nothing racing it, then the checks: each
			// round another kind of read comes first, walking the roster
			// from its end while the workers start at its head, so each
			// kind is the first reader of tenants the wave left behind.
			for _, svc := range eager.Services() {
				if err := svc.Advance(nws.DefaultPeriod); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := raced.AdvanceAll(nws.DefaultPeriod); err != nil {
				t.Fatal(err)
			}
			eagers := eager.Services()
			slices.Reverse(eagers)
			pairs := make([][2]*Service, 0, tenants)
			for _, want := range eagers {
				got, err := raced.Lookup(want.Name())
				if err != nil {
					t.Fatal(err)
				}
				pairs = append(pairs, [2]*Service{got, want})
			}
			checks := []func(){
				func() {
					for _, p := range pairs {
						if g, w := p[0].Readout(), p[1].Readout(); !reflect.DeepEqual(g, w) {
							t.Fatalf("round %d %s: readout %+v, want %+v", round, p[1].Name(), g, w)
						}
					}
				},
				func() {
					live := eager.Names()
					if g, w := platformLines(t, metrics, live, scraped...), platformLines(t, eagerMetrics, live, scraped...); !reflect.DeepEqual(g, w) {
						t.Fatalf("round %d: scrape %q, want %q", round, g, w)
					}
				},
				func() {
					var g, w bytes.Buffer
					if err := raced.WriteSnapshot(&g); err != nil {
						t.Fatal(err)
					}
					if err := eager.WriteSnapshot(&w); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(g.Bytes(), w.Bytes()) {
						t.Fatalf("round %d: images differ", round)
					}
				},
			}
			for i := range checks {
				checks[(round+i)%len(checks)]()
			}
		}
		WaitRefits()
	})

	t.Run("back-to-back waves", func(t *testing.T) {
		const tenants, waves = 24, 40
		raced := catchUpFleet(t, tenants, nil)
		eager := catchUpFleet(t, tenants, nil)
		for wave := 0; wave < waves; wave++ {
			for _, svc := range eager.Services() {
				if err := svc.Advance(nws.DefaultPeriod); err != nil {
					t.Fatal(err)
				}
			}
		}
		WaitRefits()
		base := runtime.NumGoroutine()
		for wave := 0; wave < waves; wave++ {
			if _, _, err := raced.AdvanceAll(nws.DefaultPeriod); err != nil {
				t.Fatal(err)
			}
			background.mu.Lock()
			workers, queued := background.workers, len(background.behind)
			background.mu.Unlock()
			if workers > backgroundWorkers() || queued > tenants {
				t.Fatalf("wave %d: %d workers on %d queued tenants, want at most %d on %d",
					wave, workers, queued, backgroundWorkers(), tenants)
			}
			// A worker that has counted itself out is a live goroutine
			// until it returns, so the count may read over the bound for
			// a moment; a leak stays over it.
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); n > base+backgroundWorkers() && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				runtime.Gosched()
			}
			if n > base+backgroundWorkers() {
				t.Fatalf("wave %d: %d goroutines, %d before the waves", wave, n, base)
			}
		}
		WaitRefits()
		for _, svc := range raced.Services() {
			if n := behindMonitors(svc); n != 0 {
				t.Errorf("%s: %d monitors behind its clock after the drain", svc.Name(), n)
			}
		}
		if t.Failed() {
			return
		}
		var g, w bytes.Buffer
		if err := raced.WriteSnapshot(&g); err != nil {
			t.Fatal(err)
		}
		if err := eager.WriteSnapshot(&w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatal("images differ after the drain")
		}
	})
}
