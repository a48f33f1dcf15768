package predict_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"prodpred/internal/calib"
	"prodpred/internal/obs"
	"prodpred/internal/predict"
	"prodpred/internal/stochastic"
)

// waveSpecs is the fleet the wave tests step: every FleetSpecs archetype
// (steady, bursty, workload scenarios), warm-ups staggered by one tick so
// the monitors' refits fall due on different waves, and sensor faults —
// drops, transients and an outage the waves run straight through — on
// every fifth tenant.
func waveSpecs(n int, seed int64) []predict.PlatformSpec {
	specs := predict.FleetSpecs(n, seed)
	for i := range specs {
		specs[i].Warmup = 120 + 5*float64(i%16)
		if i%5 == 0 {
			specs[i].Faults = []predict.FaultSpec{
				{Machine: i % 3, Drop: 0.1, Transient: 0.05, Outages: []predict.OutageSpec{{Start: 200, End: 240}}},
			}
		}
	}
	return specs
}

// waveSizes are four grid sizes, so every tenant grows four bandwidth
// monitors.
var waveSizes = []int{400, 800, 1200, 1600}

func waveRegistry(t *testing.T, specs []predict.PlatformSpec, metrics *obs.Registry) *predict.Registry {
	t.Helper()
	reg := predict.NewRegistryWith(predict.RegistryOptions{Metrics: metrics})
	for _, spec := range specs {
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Lookup(spec.Name); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func snapshotBytes(t *testing.T, reg *predict.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// accuracyOf reads the named tenant's calibration state.
func accuracyOf(t *testing.T, reg *predict.Registry, name string) calib.Snapshot {
	t.Helper()
	svc, err := reg.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return svc.Accuracy()
}

// TestAdvanceAllMatchesSequential: the pool is the loop. Two registries
// built from the same specs are stepped through the same waves — one by
// AdvanceAll, the other by a plain loop over its services — with the same
// predictions and observations between waves; their snapshot images must
// be equal byte for byte at a random wave and at the end, at any worker
// count. It also pins the tick against something other than itself: after
// a wave nothing has read the monitors behind, so every sample a CPU or
// bandwidth monitor has scheduled was scheduled by the tick.
func TestAdvanceAllMatchesSequential(t *testing.T) {
	const (
		tenants = 24
		waves   = 44
		dt      = 5.0
	)
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			specs := waveSpecs(tenants, 31)
			pool := waveRegistry(t, specs, obs.NewRegistry())
			loop := waveRegistry(t, specs, obs.NewRegistry())
			rng := rand.New(rand.NewSource(int64(procs)))
			checkAt := rng.Intn(waves - 1)

			// traffic sends one tenant a scalar and a quantile request and
			// feeds back the oldest outstanding prediction; the answers
			// (errors included — a bursty tenant may read a zero load)
			// must agree between the two fleets.
			pending := make(map[string][]uint64)
			traffic := func(wave int) {
				for k := 0; k < 6; k++ {
					name := specs[(wave*7+k*5)%tenants].Name
					n := waveSizes[(wave+k)%len(waveSizes)]
					for _, req := range []predict.Request{
						{Platform: name, N: n, Iterations: 10 + 10*(k%3)},
						{Platform: name, N: n, Iterations: 20, Levels: []float64{0.5, 0.95}},
					} {
						pp, perr := pool.Predict(req)
						lp, lerr := loop.Predict(req)
						if (perr == nil) != (lerr == nil) || !reflect.DeepEqual(pp, lp) {
							t.Fatalf("wave %d %s n=%d: pool answered %+v (%v), loop %+v (%v)", wave, name, n, pp, perr, lp, lerr)
						}
						if perr == nil {
							pending[name] = append(pending[name], pp.ID)
						}
					}
					if ids := pending[name]; len(ids) > 2 {
						actual := 10 + float64(ids[0]%7)
						pd, perr := pool.Observe(name, ids[0], actual)
						ld, lerr := loop.Observe(name, ids[0], actual)
						ps, ls := accuracyOf(t, pool, name), accuracyOf(t, loop, name)
						if perr != nil || lerr != nil || pd != ld || !reflect.DeepEqual(ps, ls) {
							t.Fatalf("wave %d %s observe: pool %+v (%v), loop %+v (%v)", wave, name, ps, perr, ls, lerr)
						}
						pending[name] = ids[1:]
					}
				}
			}

			// Touch every grid size on every tenant first, so the waves
			// carry four bandwidth monitors each.
			for _, spec := range specs {
				for _, n := range waveSizes {
					req := predict.Request{Platform: spec.Name, N: n, Iterations: 10}
					_, perr := pool.Predict(req)
					_, lerr := loop.Predict(req)
					if (perr == nil) != (lerr == nil) {
						t.Fatalf("%s n=%d: pool %v, loop %v", spec.Name, n, perr, lerr)
					}
				}
			}

			for wave := 0; wave < waves; wave++ {
				services, times, err := pool.AdvanceAll(dt)
				if err != nil {
					t.Fatal(err)
				}
				if len(services) != tenants || len(times) != tenants {
					t.Fatalf("wave %d stepped %d tenants (%d times), want %d", wave, len(services), len(times), tenants)
				}
				for i, svc := range loop.Services() {
					if err := svc.Advance(dt); err != nil {
						t.Fatal(err)
					}
					if services[i].Name() != svc.Name() || times[i] != svc.Now() || services[i].Now() != svc.Now() {
						t.Fatalf("wave %d slot %d: pool stepped %s to %g (reported %g), loop %s to %g",
							wave, i, services[i].Name(), services[i].Now(), times[i], svc.Name(), svc.Now())
					}
				}
				if wave == checkAt && !bytes.Equal(snapshotBytes(t, pool), snapshotBytes(t, loop)) {
					t.Fatalf("images differ after wave %d", wave)
				}
				if wave < waves-1 {
					traffic(wave)
				}
			}
			if !bytes.Equal(snapshotBytes(t, pool), snapshotBytes(t, loop)) {
				t.Fatal("images differ at the end")
			}

			for _, svc := range pool.Services() {
				due := int(svc.Now()/5) + 1 // one sample per 5 s period from t = 0
				r := svc.Readout()
				for m, rep := range r.Reports {
					if g := rep.Gaps; g.Scheduled() != due {
						t.Errorf("%s machine %d: %d samples scheduled at t=%g, want %d", svc.Name(), m, g.Scheduled(), svc.Now(), due)
					}
				}
				if got, want := r.BWGaps.Scheduled(), len(waveSizes)*due; got != want {
					t.Errorf("%s: bandwidth monitors scheduled %d samples at t=%g, want %d", svc.Name(), got, svc.Now(), want)
				}
			}
		})
	}
}

// TestAdvanceAllUnderTraffic runs waves against a fleet that is being
// served and reshaped at the same time — predictions and observations on
// every live tenant, cold tenants instantiated by their first Lookup, new
// specs registered, live tenants retired. Whatever the interleaving: a
// wave's roster names no tenant twice; a tenant in two consecutive rosters
// moved by exactly dt between them, and one live throughout by dt per wave
// with one cache generation per wave — stepped once, never twice; and a
// prediction is stamped with a time its tenant's clock stood at between the
// generations read either side of the call, equal to every other answer
// for that tenant, time and shape.
func TestAdvanceAllUnderTraffic(t *testing.T) {
	const (
		steady = 10 // live from start to end
		doomed = 3  // live at the start, retired on the way
		cold   = 4  // registered, instantiated mid-run by a Lookup
		late   = 3  // registered mid-run
		waves  = 24
		dt     = 5.0
	)
	specs := waveSpecs(steady+doomed+cold+late, 77)
	reg := predict.NewRegistryWith(predict.RegistryOptions{Metrics: obs.NewRegistry()})
	for i, spec := range specs[:steady+doomed+cold] {
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
		if i < steady+doomed {
			if _, err := reg.Lookup(spec.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	type origin struct {
		time float64
		gen  uint64
	}
	start := make(map[string]origin)
	for _, svc := range reg.Services() {
		start[svc.Name()] = origin{svc.Now(), svc.CacheGeneration()}
	}

	type answer struct {
		name  string
		time  float64
		shape int
	}
	var (
		mu       sync.Mutex
		answers  = make(map[answer]stochastic.Value) // the raw model value: calibration moves within a tick
		answered atomic.Int64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	shapes := []predict.Request{
		{N: 400, Iterations: 10},
		{N: 800, Iterations: 20, Levels: []float64{0.9}},
		{N: 1200, Iterations: 10},
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			type issued struct {
				name string
				id   uint64
			}
			var open []issued
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := specs[i%steady].Name
				svc, err := reg.Lookup(name)
				if err != nil {
					t.Errorf("lookup %s: %v", name, err)
					return
				}
				shape := i % len(shapes)
				req := shapes[shape]
				req.Platform = name
				before := svc.CacheGeneration()
				p, err := svc.Predict(req)
				after := svc.CacheGeneration()
				if err != nil {
					continue // a bursty tenant reading a zero load; not this test's subject
				}
				o := start[name]
				lo := o.time + dt*float64(before-o.gen)
				hi := o.time + dt*float64(after-o.gen)
				if p.Time < lo || p.Time > hi {
					t.Errorf("%s: prediction stamped %g, clock stood in [%g, %g] around the call", name, p.Time, lo, hi)
					return
				}
				key := answer{name, p.Time, shape}
				mu.Lock()
				first, seen := answers[key]
				if !seen {
					answers[key] = p.Raw
				}
				mu.Unlock()
				if seen && first != p.Raw {
					t.Errorf("%s t=%g shape %d: answers differ within one tick: %v vs %v", name, p.Time, shape, first, p.Raw)
					return
				}
				answered.Add(1)
				if open = append(open, issued{name, p.ID}); len(open) > 4 && w%2 == 0 {
					if _, err := reg.Observe(open[0].name, open[0].id, 10+float64(open[0].id%5)); err != nil {
						t.Errorf("observe %s: %v", open[0].name, err)
						return
					}
					open = open[1:]
				}
			}
		}(w)
	}

	// The fleet changes shape between and during waves.
	reshape := make(chan int)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for wave := range reshape {
			if k := wave / 2; wave%2 == 0 && k < cold {
				if _, err := reg.Lookup(specs[steady+doomed+k].Name); err != nil {
					t.Errorf("cold lookup: %v", err)
				}
			}
			if k := wave / 3; wave%3 == 1 && k < late {
				spec := specs[steady+doomed+cold+k]
				if err := reg.RegisterSpec(spec); err != nil {
					t.Errorf("register: %v", err)
				}
				if _, err := reg.Lookup(spec.Name); err != nil {
					t.Errorf("late lookup: %v", err)
				}
			}
			if k := wave / 3; wave%3 == 2 && k < doomed {
				if err := reg.Retire(specs[steady+k].Name); err != nil {
					t.Errorf("retire: %v", err)
				}
			}
		}
	}()

	last := make(map[string]float64) // tenant → clock after the previous wave it was in
	inPrev := make(map[string]bool)
	for wave := 0; wave < waves; wave++ {
		for target := answered.Load() + 16; answered.Load() < target; {
			runtime.Gosched()
		}
		reshape <- wave // runs beside this wave
		services, times, err := reg.AdvanceAll(dt)
		if err != nil {
			t.Fatal(err)
		}
		in := make(map[string]bool, len(services))
		for i, svc := range services {
			name := svc.Name()
			if in[name] {
				t.Fatalf("wave %d stepped %s twice", wave, name)
			}
			in[name] = true
			if inPrev[name] && times[i] != last[name]+dt {
				t.Fatalf("wave %d: %s went %g → %g, want one step of %g", wave, name, last[name], times[i], dt)
			}
			last[name] = times[i]
		}
		for _, spec := range specs[:steady] {
			if !in[spec.Name] {
				t.Fatalf("wave %d skipped live tenant %s", wave, spec.Name)
			}
		}
		inPrev = in
	}
	close(reshape)
	close(stop)
	wg.Wait()

	for _, spec := range specs[:steady] {
		svc, err := reg.Lookup(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		o := start[spec.Name]
		if got, want := svc.Now(), o.time+waves*dt; got != want {
			t.Errorf("%s: clock at %g after %d waves from %g, want %g", spec.Name, got, waves, o.time, want)
		}
		if got, want := svc.CacheGeneration(), o.gen+waves; got != want {
			t.Errorf("%s: %d clock movements over %d waves", spec.Name, got-o.gen, waves)
		}
	}
	if got := len(reg.Services()); got != steady+cold+late {
		t.Errorf("%d tenants live at the end, want %d", got, steady+cold+late)
	}
}
