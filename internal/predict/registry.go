package predict

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prodpred/internal/calib"
	"prodpred/internal/obs"
)

// registryShards is how many independently locked shards platform names
// are spread across. The count never changes while a registry lives and
// shard assignment is never serialised, so a plain hash modulo does the job.
const registryShards = 32

// RegistryOptions tunes a fleet registry.
type RegistryOptions struct {
	// Metrics, when non-nil, instruments every lazily instantiated service
	// (eagerly Register()ed services carry whatever their Config chose).
	Metrics *obs.Registry
}

// Registry routes requests to the Service owning the named platform — the
// multi-tenant front a serving daemon puts before its fleet. Platform
// names are hashed across independently locked shards, so
// Lookup and PredictBatch on thousands of tenants never contend on one
// registry-wide mutex. Platforms register either as live services
// (Register) or as declarative specs (RegisterSpec) that instantiate
// lazily — build, warm up, publish — on the first request that names
// them. Safe for concurrent use.
type Registry struct {
	shards  [registryShards]registryShard
	metrics *obs.Registry

	// waveSeconds is the wall time of each AdvanceAll (nil without
	// metrics); spawned counts the goroutines AdvanceAll has started, for
	// the tests that pin when it starts none.
	waveSeconds *obs.Histogram
	spawned     atomic.Int64

	// countMu guards the registration count and the sole-platform name the
	// empty-name Lookup convenience resolves through.
	countMu  sync.Mutex
	count    int
	soleName string
}

// registryShard is one lock domain of the registry: the subset of
// platforms whose names hash to it. services is the live fast path
// (published under the write lock once a service exists); entries holds
// every registration, cold or live.
type registryShard struct {
	mu       sync.RWMutex
	services map[string]*Service
	entries  map[string]*platformEntry
}

// platformEntry is one registered platform. A spec entry starts cold and
// memoizes its build (service or error) under its own mutex, so
// concurrent first requests for a cold tenant build it exactly once and a
// slow build never blocks requests for other tenants on the same shard.
type platformEntry struct {
	spec *PlatformSpec // nil for directly registered services

	mu    sync.Mutex
	built bool
	svc   *Service
	err   error
}

// NewRegistry returns an empty registry with default options.
func NewRegistry() *Registry {
	return NewRegistryWith(RegistryOptions{})
}

// NewRegistryWith returns an empty registry with the given
// instrumentation.
func NewRegistryWith(opts RegistryOptions) *Registry {
	r := &Registry{metrics: opts.Metrics}
	if opts.Metrics != nil {
		r.waveSeconds = opts.Metrics.NewHistogram(MetricFleetAdvance,
			"Wall-clock time of one fleet-wide clock step (Registry.AdvanceAll) in seconds.", nil)
	}
	for i := range r.shards {
		r.shards[i].services = make(map[string]*Service)
		r.shards[i].entries = make(map[string]*platformEntry)
	}
	return r
}

// fnv64a is an inline FNV-1a so the per-request hash allocates nothing.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// shardFor maps a platform name to its shard: FNV-1a modulo the shard
// count.
func (r *Registry) shardFor(name string) *registryShard {
	return &r.shards[fnv64a(name)%registryShards]
}

// registered records a new registration for the empty-name resolution
// bookkeeping.
func (r *Registry) registered(name string) {
	r.countMu.Lock()
	r.count++
	if r.count == 1 {
		r.soleName = name
	} else {
		r.soleName = ""
	}
	r.countMu.Unlock()
}

// Register adds a live service under its platform name.
func (r *Registry) Register(s *Service) error {
	if s == nil {
		return errors.New("predict: nil service")
	}
	if s.Name() == "" {
		return errors.New("predict: service platform has no name")
	}
	sh := r.shardFor(s.Name())
	sh.mu.Lock()
	if _, ok := sh.entries[s.Name()]; ok {
		sh.mu.Unlock()
		return fmt.Errorf("predict: platform %q already registered", s.Name())
	}
	sh.entries[s.Name()] = &platformEntry{spec: s.Spec(), built: true, svc: s}
	sh.services[s.Name()] = s
	sh.mu.Unlock()
	r.registered(s.Name())
	return nil
}

// RegisterSpec adds a cold declarative platform: the spec is validated and
// deep-copied now, and the Service is built — config, constructor, warmup
// — on the first request that names it.
func (r *Registry) RegisterSpec(spec PlatformSpec) error {
	if spec.Name == "" {
		return errors.New("predict: spec missing platform name")
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	sh := r.shardFor(spec.Name)
	sh.mu.Lock()
	if _, ok := sh.entries[spec.Name]; ok {
		sh.mu.Unlock()
		return fmt.Errorf("predict: platform %q already registered", spec.Name)
	}
	sh.entries[spec.Name] = &platformEntry{spec: spec.clone()}
	sh.mu.Unlock()
	r.registered(spec.Name)
	return nil
}

// registerRestored installs a spec together with its already-live restored
// service — the snapshot restore path.
func (r *Registry) registerRestored(spec *PlatformSpec, s *Service) error {
	sh := r.shardFor(spec.Name)
	sh.mu.Lock()
	if _, ok := sh.entries[spec.Name]; ok {
		sh.mu.Unlock()
		return fmt.Errorf("predict: platform %q already registered", spec.Name)
	}
	sh.entries[spec.Name] = &platformEntry{spec: spec, built: true, svc: s}
	sh.services[spec.Name] = s
	sh.mu.Unlock()
	r.registered(spec.Name)
	return nil
}

// Retire removes a platform registration — live or cold — so subsequent
// Lookups miss with the bounded unknown-platform error. Requests already
// holding the *Service keep working (the service itself is not torn
// down); fleet consumers that enumerate tenants per round (the fleet
// scheduler) observe the miss and are expected to skip and record it
// rather than fail. Retiring an unknown name returns the same bounded
// miss error Lookup would.
func (r *Registry) Retire(name string) error {
	if name == "" {
		return errors.New("predict: retire needs a platform name")
	}
	sh := r.shardFor(name)
	sh.mu.Lock()
	if _, ok := sh.entries[name]; !ok {
		sh.mu.Unlock()
		return r.missError(fmt.Sprintf("predict: unknown platform %q", name), name)
	}
	delete(sh.entries, name)
	delete(sh.services, name)
	sh.mu.Unlock()
	// Re-derive the empty-name resolution bookkeeping. Names() nests shard
	// read locks under countMu; no path locks in the reverse order (every
	// shard-lock holder releases before touching countMu).
	r.countMu.Lock()
	r.count--
	r.soleName = ""
	if r.count == 1 {
		if names := r.Names(); len(names) == 1 {
			r.soleName = names[0]
		}
	}
	r.countMu.Unlock()
	return nil
}

// Lookup finds (or lazily instantiates) the service for a platform name.
// An empty name resolves only when exactly one platform is registered.
// Misses allocate a bounded error — a count plus the few nearest names —
// never the full tenant list.
func (r *Registry) Lookup(name string) (*Service, error) {
	if name == "" {
		r.countMu.Lock()
		count, sole := r.count, r.soleName
		r.countMu.Unlock()
		if count == 1 && sole != "" {
			return r.Lookup(sole)
		}
		return nil, r.missError("predict: no platform named", "")
	}
	sh := r.shardFor(name)
	sh.mu.RLock()
	svc := sh.services[name]
	e := sh.entries[name]
	sh.mu.RUnlock()
	if svc != nil {
		return svc, nil
	}
	if e == nil {
		return nil, r.missError(fmt.Sprintf("predict: unknown platform %q", name), name)
	}
	return e.instantiate(r, sh)
}

// instantiate builds the entry's service exactly once, memoizing the
// result (or the error) and publishing the live service on the shard's
// fast path.
func (e *platformEntry) instantiate(r *Registry, sh *registryShard) (*Service, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.built {
		return e.svc, e.err
	}
	svc, err := NewServiceFromSpec(e.spec, r.metrics)
	if err != nil {
		err = fmt.Errorf("predict: instantiating platform %q: %w", e.spec.Name, err)
	}
	e.svc, e.err, e.built = svc, err, true
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	sh.services[e.spec.Name] = svc
	sh.mu.Unlock()
	return svc, nil
}

// missError builds the bounded lookup-failure error: prefix, registration
// count, and up to three nearest registered names (longest shared prefix
// first) — never the full fleet roster.
func (r *Registry) missError(prefix, miss string) error {
	count, nearest := r.nearestNames(miss, 3)
	if count == 0 {
		return fmt.Errorf("%s; no platforms registered", prefix)
	}
	return fmt.Errorf("%s; %d platform(s) registered (nearest: %s)", prefix, count, strings.Join(nearest, ", "))
}

// nearestNames returns the total registration count and the k registered
// names nearest to miss, ranked by longest shared prefix then
// lexicographically. O(fleet) time on the error path only; the happy path
// never calls it.
func (r *Registry) nearestNames(miss string, k int) (int, []string) {
	type cand struct {
		name   string
		shared int
	}
	var cands []cand
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for name := range sh.entries {
			cands = append(cands, cand{name: name, shared: sharedPrefix(name, miss)})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].shared != cands[j].shared {
			return cands[i].shared > cands[j].shared
		}
		return cands[i].name < cands[j].name
	})
	n := len(cands)
	if k > n {
		k = n
	}
	names := make([]string, k)
	for i := 0; i < k; i++ {
		names[i] = cands[i].name
	}
	return n, names
}

func sharedPrefix(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// Names returns every registered platform name (live or cold), sorted.
func (r *Registry) Names() []string {
	var names []string
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for name := range sh.entries {
			names = append(names, name)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(names)
	return names
}

// Services returns the live (instantiated) services in platform-name
// order; cold specs are not materialized.
func (r *Registry) Services() []*Service {
	var out []*Service
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, svc := range sh.services {
			out = append(out, svc)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// AdvanceAll steps the clock of every live tenant forward by dt virtual
// seconds — the one definition of a fleet-wide tick. Tenants are
// independent (each Service owns its monitors, clock and cache), so
// min(GOMAXPROCS, live) workers pull them off a shared index in roster
// (name) order and each tenant ticks under its own clock lock only: there
// is no fleet lock, and requests to tenants not being ticked at that
// instant are served throughout. Every tenant is attempted whatever the
// others return. The result is the roster that was stepped, each tenant's
// clock as its step left it, and the first error in roster order, wrapped
// with its tenant's name. With one worker the caller runs the loop itself
// and no goroutine is started.
func (r *Registry) AdvanceAll(dt float64) ([]*Service, []float64, error) {
	return r.advanceAll(dt, (*Service).advance)
}

// advanceAll is AdvanceAll over a given per-tenant step — the seam the
// tests reach a failing tenant through, which no real step produces.
func (r *Registry) advanceAll(dt float64, step func(*Service, float64) (float64, error)) ([]*Service, []float64, error) {
	start := time.Now()
	services := r.Services()
	times := make([]float64, len(services))
	errs := make([]error, len(services))
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(services) {
				return
			}
			times[i], errs[i] = step(services[i], dt)
		}
	}
	// The caller is one of the workers.
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(services)); w > 1; w-- {
		r.spawned.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	r.waveSeconds.Observe(time.Since(start).Seconds())
	for i, err := range errs {
		if err != nil {
			return services, times, fmt.Errorf("predict: advancing platform %q: %w", services[i].Name(), err)
		}
	}
	return services, times, nil
}

// LiveCount returns how many platforms have been instantiated so far.
func (r *Registry) LiveCount() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		n += len(sh.services)
		sh.mu.RUnlock()
	}
	return n
}

// Predict routes the request to the service named by req.Platform.
func (r *Registry) Predict(req Request) (Prediction, error) {
	s, err := r.Lookup(req.Platform)
	if err != nil {
		return Prediction{}, err
	}
	return s.Predict(req)
}

// PredictBatch routes many requests in one call: requests are grouped by
// platform (preserving first-appearance order) and each group is resolved
// with a single shared-clock visit to its service, so a batch touching one
// platform's monitors pays the shard/cache walk once per distinct request
// shape. Results and errors are positional, parallel to reqs; a request for
// an unknown platform gets the lookup error at its index without failing
// the rest.
func (r *Registry) PredictBatch(reqs []Request) ([]Prediction, []error) {
	preds := make([]Prediction, len(reqs))
	errs := make([]error, len(reqs))
	byPlat := make(map[string][]int)
	var order []string
	for i, req := range reqs {
		if _, ok := byPlat[req.Platform]; !ok {
			order = append(order, req.Platform)
		}
		byPlat[req.Platform] = append(byPlat[req.Platform], i)
	}
	for _, name := range order {
		idxs := byPlat[name]
		svc, err := r.Lookup(name)
		if err != nil {
			for _, i := range idxs {
				errs[i] = err
			}
			continue
		}
		sub := make([]Request, len(idxs))
		for j, i := range idxs {
			sub[j] = reqs[i]
		}
		subPreds, subErrs := svc.PredictBatch(sub)
		for j, i := range idxs {
			preds[i], errs[i] = subPreds[j], subErrs[j]
		}
	}
	return preds, errs
}

// Observe routes a measured runtime (virtual seconds) to the service that
// issued the prediction, closing the accuracy loop for that platform.
func (r *Registry) Observe(platform string, id uint64, actual float64) (calib.Snapshot, error) {
	s, err := r.Lookup(platform)
	if err != nil {
		return calib.Snapshot{}, err
	}
	return s.Observe(id, actual)
}
