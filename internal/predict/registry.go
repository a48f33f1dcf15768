package predict

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prodpred/internal/load"
	"prodpred/internal/obs"
)

// RegistryOptions tunes a fleet registry.
type RegistryOptions struct {
	// Metrics, when non-nil, instruments every service the registry builds
	// or restores.
	Metrics *obs.Registry
}

// Registry routes requests to the Service owning the named platform — the
// multi-tenant front a serving daemon puts before its fleet. One RWMutex
// guards one name → entry map and a name-sorted roster of the same entries; a
// lookup holds it shared for one map read (tens of nanoseconds of a request's
// hundreds of microseconds), so there is no contention for more locks to
// spread. Platforms register as declarative specs (RegisterSpec) that
// instantiate lazily — build, warm up, publish — on the first request that
// names them; a restored snapshot registers its live platforms built. Safe
// for concurrent use.
type Registry struct {
	metrics *obs.Registry

	// waveSeconds is the wall time of each AdvanceAll's clock moves (nil
	// without metrics).
	waveSeconds *obs.Histogram

	// mu guards entries and roster. roster is every registration in name
	// order — the order names, live services and snapshots are listed in —
	// and is replaced, never written in place, so a reader takes mu only to
	// load the slice and walks it unlocked.
	mu      sync.RWMutex
	entries map[string]*platformEntry
	roster  []*platformEntry
}

// platformEntry is one registered platform. svc is the live service: set at
// registration for one restored from a snapshot, published by instantiate
// for a cold spec. The build is memoized (service or error) under the
// entry's own mutex, so concurrent first requests for a cold tenant build it
// exactly once and a slow build holds no registry lock.
type platformEntry struct {
	name string
	spec *PlatformSpec
	svc  atomic.Pointer[Service]

	mu    sync.Mutex
	built bool
	err   error
}

// NewRegistry returns an empty registry with default options.
func NewRegistry() *Registry {
	return NewRegistryWith(RegistryOptions{})
}

// NewRegistryWith returns an empty registry with the given
// instrumentation.
func NewRegistryWith(opts RegistryOptions) *Registry {
	r := &Registry{metrics: opts.Metrics, entries: make(map[string]*platformEntry)}
	if opts.Metrics != nil {
		r.waveSeconds = opts.Metrics.NewHistogram(MetricFleetAdvance,
			"Wall-clock time of one fleet-wide clock step (Registry.AdvanceAll) in seconds.", nil)
		opts.Metrics.NewCounterVec(MetricLoadReplays,
			"Simulated load reads, process-wide, that fell behind their process's kept tail and replayed it from tick 0.").
			Func(func() int64 { n, _ := load.Replays(); return n })
		opts.Metrics.NewCounterVec(MetricLoadReplayTicks,
			"Generated load ticks those replays discarded, each generated again when read again, process-wide.").
			Func(func() int64 { _, n := load.Replays(); return n })
	}
	return r
}

// add files a new registration, keeping the roster in name order.
func (r *Registry) add(e *platformEntry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[e.name]; ok {
		return fmt.Errorf("predict: platform %q already registered", e.name)
	}
	r.entries[e.name] = e
	i, _ := slices.BinarySearchFunc(r.roster, e.name, func(e *platformEntry, name string) int {
		return strings.Compare(e.name, name)
	})
	r.roster = slices.Insert(slices.Clone(r.roster), i, e)
	return nil
}

// addLive files a registration whose service already exists.
func (r *Registry) addLive(s *Service) error {
	e := &platformEntry{name: s.Name(), spec: s.spec, built: true}
	e.svc.Store(s)
	return r.add(e)
}

// entriesByName returns the roster: every registration, in name order. The
// slice is shared and read-only.
func (r *Registry) entriesByName() []*platformEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.roster
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
	return r.add(&platformEntry{name: spec.Name, spec: spec.clone()})
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
	r.mu.Lock()
	e, ok := r.entries[name]
	if ok {
		delete(r.entries, name)
		r.roster = slices.DeleteFunc(slices.Clone(r.roster), func(x *platformEntry) bool { return x == e })
	}
	r.mu.Unlock()
	if !ok {
		return r.missError(fmt.Sprintf("predict: unknown platform %q", name), name)
	}
	return nil
}

// Lookup finds (or lazily instantiates) the service for a platform name.
// An empty name resolves only when exactly one platform is registered.
// Misses allocate a bounded error — a count plus the few nearest names —
// never the full tenant list.
func (r *Registry) Lookup(name string) (*Service, error) {
	var e *platformEntry
	if name == "" {
		roster := r.entriesByName()
		if len(roster) != 1 {
			return nil, r.missError("predict: no platform named", "")
		}
		e = roster[0]
	} else {
		r.mu.RLock()
		e = r.entries[name]
		r.mu.RUnlock()
		if e == nil {
			return nil, r.missError(fmt.Sprintf("predict: unknown platform %q", name), name)
		}
	}
	if svc := e.svc.Load(); svc != nil {
		return svc, nil
	}
	return e.instantiate(r.metrics)
}

// instantiate builds the entry's service exactly once, memoizing the
// result (or the error) and publishing the live service on the entry. An
// entry retired while it builds publishes to nobody: the registry no longer
// lists it.
func (e *platformEntry) instantiate(metrics *obs.Registry) (*Service, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.built {
		return e.svc.Load(), e.err
	}
	e.built = true
	svc, err := NewServiceFromSpec(e.spec, metrics)
	if err != nil {
		e.err = fmt.Errorf("predict: instantiating platform %q: %w", e.name, err)
		return nil, e.err
	}
	e.svc.Store(svc)
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
	names := r.Names()
	// Stable over the name-ordered roster: ties stay lexicographic.
	slices.SortStableFunc(names, func(a, b string) int {
		return sharedPrefix(b, miss) - sharedPrefix(a, miss)
	})
	return len(names), names[:min(k, len(names))]
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
	roster := r.entriesByName()
	names := make([]string, len(roster))
	for i, e := range roster {
		names[i] = e.name
	}
	return names
}

// Services returns the live (instantiated) services in platform-name
// order; cold specs are not materialized.
func (r *Registry) Services() []*Service {
	var out []*Service
	for _, e := range r.entriesByName() {
		if svc := e.svc.Load(); svc != nil {
			out = append(out, svc)
		}
	}
	return out
}

// AdvanceAll steps the clock of every live tenant forward by dt virtual
// seconds — the one definition of a fleet-wide tick. Tenants are
// independent (each Service owns its monitors, clock and cache), so the
// call only moves each clock, in roster (name) order on the calling
// goroutine, each under its own clock lock: there is no fleet lock, and
// requests to tenants other than the one being moved are served throughout.
// The result is the roster that was stepped and each tenant's clock as its
// step left it. A negative dt is refused before any clock moves: nothing
// else can fail a move.
//
// The monitors catch up behind the answer: the wave queues its tenants on
// the process's one background queue (queueCatchUps), whose workers run each
// tenant's monitors forward under the shared clock lock and then the mixture
// refits that fell due. A reader that comes first catches the tenant up
// itself (Service.catchUpLocked), so nothing sees a monitor behind its clock
// and every answer and image is the eager step's; WaitRefits drains the
// workers. Waves that come faster than the workers drain grow neither the
// queue (a tenant waits in it once) nor the workers.
func (r *Registry) AdvanceAll(dt float64) ([]*Service, []float64, error) {
	if dt < 0 {
		return nil, nil, fmt.Errorf("predict: negative advance %g", dt)
	}
	start := time.Now()
	services := r.Services()
	times := make([]float64, len(services))
	for i, svc := range services {
		times[i] = svc.moveClock(dt)
	}
	r.waveSeconds.Observe(time.Since(start).Seconds())
	queueCatchUps(services...)
	return services, times, nil
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
	r.PredictInto(reqs, preds, errs, nil)
	return preds, errs
}

// PredictInto is PredictBatch writing its positional results into preds
// and errs, each as long as reqs, and, when svcs is not nil, the service
// that answered each request into svcs (nil where the lookup failed). It
// looks up each platform the batch names once.
func (r *Registry) PredictInto(reqs []Request, preds []Prediction, errs []error, svcs []*Service) {
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
		if svcs != nil {
			for _, i := range idxs {
				svcs[i] = svc
			}
		}
		svc.predictBatch(reqs, idxs, preds, errs)
	}
}

// Observe routes a measured runtime (virtual seconds) to the service that
// issued the prediction, closing the accuracy loop for that platform; it
// reports whether the outcome fired a regime reset, as Service.Observe.
func (r *Registry) Observe(platform string, id uint64, actual float64) (drifted bool, err error) {
	s, err := r.Lookup(platform)
	if err != nil {
		return false, err
	}
	return s.Observe(id, actual)
}
