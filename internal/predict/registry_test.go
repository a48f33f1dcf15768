package predict_test

import (
	"strings"
	"sync"
	"testing"

	"prodpred/internal/predict"
)

func fleetRegistry(t *testing.T, n int) *predict.Registry {
	t.Helper()
	reg := predict.NewRegistry()
	for _, spec := range predict.FleetSpecs(n, 3) {
		spec.Warmup = 30 // keep instantiation cheap in tests
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// TestRegistryLazyInstantiation asserts cold specs cost nothing until the
// first request that names them, and that a request instantiates only its
// own tenant.
func TestRegistryLazyInstantiation(t *testing.T) {
	reg := fleetRegistry(t, 50)
	if got := len(reg.Services()); got != 0 {
		t.Fatalf("live services before any request = %d, want 0", got)
	}
	if got := len(reg.Names()); got != 50 {
		t.Fatalf("Names lists %d platforms, want 50", got)
	}
	req := baseRequest()
	req.Platform = "tenant-0007"
	p, err := reg.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	if p.Time != 30 {
		t.Fatalf("lazily built tenant served at t=%g, want its warmup 30", p.Time)
	}
	if got := len(reg.Services()); got != 1 {
		t.Fatalf("live services after one request = %d, want 1", got)
	}
}

// TestRegistryConcurrentFirstLookup asserts a cold tenant is built exactly
// once under concurrent first requests — every caller gets the same
// service instance.
func TestRegistryConcurrentFirstLookup(t *testing.T) {
	reg := fleetRegistry(t, 4)
	const callers = 16
	services := make([]*predict.Service, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			svc, err := reg.Lookup("tenant-0002")
			if err != nil {
				t.Error(err)
				return
			}
			services[i] = svc
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if services[i] != services[0] {
			t.Fatal("concurrent first lookups built different services")
		}
	}
	if got := len(reg.Services()); got != 1 {
		t.Fatalf("live services = %d, want 1", got)
	}
}

// TestRegistryLookupErrorBounded is the satellite regression: a miss
// against a large fleet must allocate a bounded error — a count plus a few
// nearest names — not format the entire tenant roster.
func TestRegistryLookupErrorBounded(t *testing.T) {
	reg := fleetRegistry(t, 1000)
	_, err := reg.Lookup("tenant-05xx")
	if err == nil {
		t.Fatal("want lookup error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "unknown platform") || !strings.Contains(msg, "1000") {
		t.Fatalf("error should carry the registration count: %q", msg)
	}
	if !strings.Contains(msg, "tenant-05") {
		t.Fatalf("error should carry nearby names: %q", msg)
	}
	if len(msg) > 256 {
		t.Fatalf("miss error is %d bytes — the full roster leaked in: %q...", len(msg), msg[:120])
	}
	// The missed name itself plus at most three nearest suggestions.
	if strings.Count(msg, "tenant-") > 4 {
		t.Fatalf("miss error names more than 3 tenants: %q", msg)
	}
}

// TestRegistryEmptyNameMultiTenant pins the empty-name Lookup semantics on
// a fleet: with many tenants the empty name is an error (bounded, with the
// count); with exactly one registered spec it resolves to that tenant,
// lazily instantiating it.
func TestRegistryEmptyNameMultiTenant(t *testing.T) {
	reg := fleetRegistry(t, 8)
	if _, err := reg.Lookup(""); err == nil {
		t.Fatal("empty name with 8 tenants should fail")
	} else if !strings.Contains(err.Error(), "8 platform(s)") {
		t.Fatalf("empty-name error should carry the count: %q", err.Error())
	}

	solo := predict.NewRegistry()
	spec := predict.FleetSpecs(1, 9)[0]
	spec.Warmup = 30
	if err := solo.RegisterSpec(spec); err != nil {
		t.Fatal(err)
	}
	svc, err := solo.Lookup("")
	if err != nil {
		t.Fatalf("empty name with a single spec should resolve: %v", err)
	}
	if svc.Name() != spec.Name {
		t.Fatalf("resolved %q, want %q", svc.Name(), spec.Name)
	}
	empty := predict.NewRegistry()
	if _, err := empty.Lookup(""); err == nil {
		t.Fatal("empty registry should fail")
	}
}

func TestRegistryDuplicateRegistration(t *testing.T) {
	reg := predict.NewRegistry()
	spec := predict.FleetSpecs(1, 2)[0]
	if err := reg.RegisterSpec(spec); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterSpec(spec); err == nil {
		t.Fatal("duplicate spec registration should fail")
	}
	if _, err := reg.Lookup(spec.Name); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterSpec(spec); err == nil {
		t.Fatal("registering a spec over its live service should fail")
	}
}

// TestRegistryRetire asserts retiring a tenant removes it from lookup and
// the roster with the bounded miss error, keeps already-held services
// usable, and re-derives the empty-name sole-platform resolution.
func TestRegistryRetire(t *testing.T) {
	reg := fleetRegistry(t, 3)
	held, err := reg.Lookup("tenant-0001")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Retire("tenant-0001"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Lookup("tenant-0001"); err == nil {
		t.Fatal("lookup of retired tenant should miss")
	} else if !strings.Contains(err.Error(), "2 platform(s) registered") {
		t.Errorf("miss error not bounded-style: %v", err)
	}
	if got := len(reg.Names()); got != 2 {
		t.Fatalf("Names lists %d platforms after retire, want 2", got)
	}
	// The already-held service keeps serving.
	req := baseRequest()
	if _, err := held.Predict(req); err != nil {
		t.Errorf("held service broken after retire: %v", err)
	}
	// Retiring an unknown name returns the bounded miss error.
	if err := reg.Retire("tenant-0001"); err == nil {
		t.Error("double retire should fail")
	}
	// Down to one platform, the empty name resolves to it again.
	if err := reg.Retire("tenant-0002"); err != nil {
		t.Fatal(err)
	}
	svc, err := reg.Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if svc.Name() != "tenant-0000" {
		t.Errorf("empty-name lookup resolved to %q, want tenant-0000", svc.Name())
	}
}
