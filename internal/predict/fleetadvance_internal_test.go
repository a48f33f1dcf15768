package predict

import (
	"runtime"
	"sort"
	"strings"
	"testing"

	"prodpred/internal/nws"
	"prodpred/internal/obs"
)

// liveFleet registers and instantiates n FleetSpecs tenants.
func liveFleet(t *testing.T, n int, opts RegistryOptions) *Registry {
	t.Helper()
	reg := NewRegistryWith(opts)
	for _, spec := range FleetSpecs(n, 5) {
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Lookup(spec.Name); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// TestTickAllocations: a one-period tick of a warm four-machine tenant with
// four bandwidth monitors runs on the calling goroutine and allocates next
// to nothing when no refit falls due (the per-monitor fan-out it replaces
// built three slices, a WaitGroup and eight closures, and started eight
// goroutines). A refit allocates its fit and falls due on about one tick in
// eight, so the figure is the median over single ticks, not their mean.
func TestTickAllocations(t *testing.T) {
	reg := liveFleet(t, 1, RegistryOptions{Metrics: obs.NewRegistry()})
	svc := reg.Services()[0] // tenant-0000: four machines
	for _, n := range []int{400, 800, 1200, 1600} {
		if _, err := svc.Predict(Request{N: n, Iterations: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if len(svc.cpu) != 4 || len(svc.bw) != 4 {
		t.Fatalf("tenant has %d CPU and %d bandwidth monitors, want 4 and 4", len(svc.cpu), len(svc.bw))
	}
	allocs := make([]float64, 41)
	for i := range allocs {
		allocs[i] = testing.AllocsPerRun(1, func() {
			if err := svc.Advance(nws.DefaultPeriod); err != nil {
				t.Fatal(err)
			}
		})
	}
	sort.Float64s(allocs)
	if median := allocs[len(allocs)/2]; median > 2 {
		t.Errorf("the median tick allocates %.0f times, want <= 2 (all ticks, sorted: %v)", median, allocs)
	}
}

// behindMonitors counts the monitors of s that stand behind its clock: one
// sample per nws.DefaultPeriod from t = 0 is due. The caller holds monMu or
// knows nothing else runs on s.
func behindMonitors(s *Service) int {
	due := int(s.now/nws.DefaultPeriod) + 1
	behind := 0
	for _, mon := range s.cpu {
		if mon.Gaps().Scheduled() != due {
			behind++
		}
	}
	for _, b := range s.bw {
		if b.mon.Gaps().Scheduled() != due {
			behind++
		}
	}
	return behind
}

// TestAdvanceAllWorkers: a wave moves every clock on the caller and returns
// without waiting for a monitor — it returns while a tenant's monitors are
// held — and starts min(max(GOMAXPROCS−1, 1), live) catch-up workers, none
// for an empty fleet, which leave every monitor at its clock once drained.
func TestAdvanceAllWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		name           string
		tenants, procs int
		spawned        int64
	}{
		{"no tenant", 0, 4, 0},
		{"one tenant", 1, 4, 1},
		{"GOMAXPROCS(1)", 6, 1, 1},
		{"fewer tenants than workers", 2, 4, 2},
		{"more tenants than workers", 6, 4, 3},
	} {
		reg := liveFleet(t, tc.tenants, RegistryOptions{})
		WaitRefits()
		spawned := background.spawned.Load()
		runtime.GOMAXPROCS(tc.procs)
		var held *Service
		if svcs := reg.Services(); len(svcs) > 0 {
			held = svcs[0]
			held.monMu.Lock()
		}
		services, times, err := reg.AdvanceAll(5)
		if err != nil {
			t.Fatal(err)
		}
		if held != nil {
			if got := behindMonitors(held); got != len(held.cpu)+len(held.bw) {
				t.Errorf("%s: %d of %s's held monitors behind its clock after the wave, want all %d",
					tc.name, got, held.Name(), len(held.cpu)+len(held.bw))
			}
			held.monMu.Unlock()
		}
		if got := background.spawned.Load() - spawned; got != tc.spawned {
			t.Errorf("%s: wave started %d goroutines, want %d", tc.name, got, tc.spawned)
		}
		for i, svc := range services {
			if times[i] != 125 || svc.Now() != 125 {
				t.Errorf("%s: %s at %g (reported %g) after one 5 s wave from 120", tc.name, svc.Name(), svc.Now(), times[i])
			}
		}
		WaitRefits()
		for _, svc := range services {
			if got := behindMonitors(svc); got != 0 {
				t.Errorf("%s: %s has %d monitors behind its clock after the drain", tc.name, svc.Name(), got)
			}
		}
	}
}

// TestBackgroundRefitQueueIsProcessWide: the catch-up workers are bounded
// by backgroundWorkers() across the process, not per registry or per step.
// Two registries' waves over tenants whose monitors are held, then a
// standalone tenant's own step, start 3 workers in all at GOMAXPROCS(4)
// (the standalone's monitors are free: a blocked worker holds its tenant's
// clock lock shared, which a tenant of the waves could not step past). Once
// released, the drain leaves every monitor at its clock.
func TestBackgroundRefitQueueIsProcessWide(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	regs := []*Registry{liveFleet(t, 6, RegistryOptions{}), liveFleet(t, 6, RegistryOptions{})}
	alone, err := NewServiceFromSpec(&FleetSpecs(1, 5)[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	WaitRefits()
	spawned := background.spawned.Load()
	var held []*Service
	for _, reg := range regs {
		for _, svc := range reg.Services() {
			svc.monMu.Lock()
			held = append(held, svc)
		}
	}
	for _, reg := range regs {
		if _, _, err := reg.AdvanceAll(5); err != nil {
			t.Fatal(err)
		}
	}
	if err := alone.Advance(5); err != nil {
		t.Fatal(err)
	}
	if got, want := background.spawned.Load()-spawned, int64(backgroundWorkers()); got != want {
		t.Errorf("two waves and a step started %d catch-up workers, want %d", got, want)
	}
	for _, svc := range held {
		svc.monMu.Unlock()
	}
	WaitRefits()
	for _, svc := range append(held, alone) {
		if got := behindMonitors(svc); got != 0 {
			t.Errorf("%s has %d monitors behind its clock after the drain", svc.Name(), got)
		}
	}
}

// TestAdvanceAllRefusesNegativeStep: a wave refuses a negative step before
// it moves a clock, so a refused wave does nothing: no clock moves, no wave
// is observed, no tenant is queued and no catch-up worker starts.
func TestAdvanceAllRefusesNegativeStep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	metrics := obs.NewRegistry()
	reg := liveFleet(t, 12, RegistryOptions{Metrics: metrics})
	WaitRefits()
	waves := func() uint64 { return metrics.NewHistogram(MetricFleetAdvance, "", nil).Snapshot().Count }
	spawned, observed := background.spawned.Load(), waves()
	services, times, err := reg.AdvanceAll(-1)
	if err == nil || !strings.Contains(err.Error(), "negative advance") {
		t.Errorf("error %v, want a negative-advance refusal", err)
	}
	if services != nil || times != nil {
		t.Errorf("refused wave returned %d services and %d times, want none", len(services), len(times))
	}
	for _, svc := range reg.Services() {
		if svc.Now() != 120 {
			t.Errorf("%s at %g after a refused wave, want 120", svc.Name(), svc.Now())
		}
		if svc.queued.Load() {
			t.Errorf("%s queued for catch-up by a refused wave", svc.Name())
		}
	}
	background.mu.Lock()
	behind := len(background.behind)
	background.mu.Unlock()
	if behind != 0 {
		t.Errorf("%d tenants in the catch-up queue after a refused wave, want 0", behind)
	}
	if got := background.spawned.Load(); got != spawned {
		t.Errorf("refused wave started %d catch-up workers, want 0", got-spawned)
	}
	if got := waves(); got != observed {
		t.Errorf("%s observed %d waves for a refused one, want 0", MetricFleetAdvance, got-observed)
	}
}
