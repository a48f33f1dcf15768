package predict

import (
	"sync"

	"prodpred/internal/nws"
	"prodpred/internal/sched"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
)

// tickCache memoizes the expensive half of Predict — monitor read, robust
// forecast, partition choice, and structural-model evaluation — within one
// virtual tick. The whole pipeline is a pure function of (monitor state,
// request shape), and monitor state only changes when the virtual clock
// advances, so every Predict between two Advance calls that shares a
// request shape can share one computed predictionCore.
//
// Coherence rule: cache generation == virtual clock. Advance bumps the
// generation and drops every entry under the service's clock write lock, so
// a cached core can never be served across a tick boundary — readers hold
// the clock read lock for the whole lookup-or-compute, and the swap happens
// only while no reader is inside.
//
// Per-request state (ledger ID, calibration multiplier) is deliberately
// not cached: each hit still issues a fresh ID and applies the calibrator's
// current scale, so the Observe feedback loop behaves exactly as it does on
// the uncached path.
//
// The map is bounded: a generation holds at most maxTickCacheEntries shapes
// and serves any further shape uncached, so a service whose clock nobody
// moves cannot be grown without limit by distinct request shapes.
type tickCache struct {
	mu      sync.RWMutex
	gen     uint64
	entries map[cacheKey]*cacheEntry
}

// cacheKey is the request shape the pipeline output depends on. Requests
// carrying a pinned Partition or a LoadOverride bypass the cache entirely
// (the experiments' knobs — their output depends on caller state the key
// cannot name).
type cacheKey struct {
	n, iterations int
	strategy      sched.Strategy
	timeBalanced  bool
	maxStrategy   stochastic.MaxStrategy
	iterationRel  structural.Relation
}

// cacheable reports whether req's pipeline output is a pure function of the
// monitor state and the key fields.
func cacheable(req Request) bool {
	return req.Partition == nil && req.LoadOverride == nil
}

func keyFor(req Request) cacheKey {
	return cacheKey{
		n:            req.N,
		iterations:   req.Iterations,
		strategy:     req.Strategy,
		timeBalanced: req.TimeBalanced,
		maxStrategy:  req.MaxStrategy,
		iterationRel: req.IterationRel,
	}
}

// cacheEntry is one memoized pipeline result. The first goroutine to reach
// a fresh entry computes under the entry lock; concurrent requests for the
// same shape block on it and then read the result, so the pipeline runs at
// most once per (shape, tick) even under a request storm.
type cacheEntry struct {
	mu   sync.Mutex
	gen  uint64 // generation stamped at creation, for diagnostics
	done bool
	core *predictionCore
	err  error
}

// predictionCore is the tick-scoped, request-shape-scoped part of a
// Prediction: everything Predict returns except the per-request ledger ID
// and calibration overlay. Loads and Partition are shared across every
// prediction served from one core; callers own Prediction values but must
// not mutate these slices (the pre-cache contract already shared Partition).
type predictionCore struct {
	raw stochastic.Value
	// The distribution grid is a lazy memo: distModel and distDists hold
	// the frozen pipeline inputs, and the first distribution-requesting
	// prediction served from this core runs the Latin-hypercube Monte
	// Carlo transform under distOnce, filling distRaw (the uncalibrated
	// execution-time quantile grid at nws.DistLevels). Requests that never
	// ask never pay the distSamples model evaluations. Laziness cannot
	// change the result: the clock read lock is held for the whole serve,
	// so the inputs are the same whenever within the tick the transform
	// runs. Like loads and partition, distRaw is shared across predictions
	// served from this core and must not be mutated; the per-level
	// conformal calibration of the grid is per-request overlay, applied
	// outside the memo exactly like the symmetric half-width multiplier.
	distOnce  sync.Once
	distRaw   []float64
	distModel *structural.SORConfig
	distDists []nws.LoadDist
	distTag   string
	partition *sor.Partition
	loads     []MachineReport
	bandwidth stochastic.Value
	bwGaps    nws.GapStats
	time      float64
}

// dist resolves the memoized distribution grid, running the Monte Carlo
// transform on first demand. Safe for concurrent callers; the once-guard
// means the transform runs at most once per core even under a request
// storm, and a core that is never asked never runs it. Callers hold the
// service's clock read lock, so the frozen inputs cannot move underneath
// the computation.
func (c *predictionCore) dist(s *Service) []float64 {
	c.distOnce.Do(func() {
		stop := s.metrics.stageTimer("dist_grid")
		c.distRaw = s.computeDistGrid(c.distModel, c.distDists, c.bandwidth, c.raw)
		stop()
	})
	return c.distRaw
}

func newTickCache() *tickCache {
	return &tickCache{entries: make(map[cacheKey]*cacheEntry)}
}

// invalidate starts a new generation, dropping every entry. Callers must
// hold the owning service's clock write lock so no reader is mid-lookup.
func (c *tickCache) invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gen++
	c.entries = make(map[cacheKey]*cacheEntry)
	c.mu.Unlock()
}

// generation returns the current generation: the number of clock movements
// since the service was built.
func (c *tickCache) generation() uint64 {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen
}

// maxTickCacheEntries bounds the shapes one generation memoizes.
const maxTickCacheEntries = 4096

// entry returns the live entry for key, creating an empty one on first
// touch — or nil when the key is new and the generation is full. The
// double-checked read keeps the common hit path on the shared read lock.
func (c *tickCache) entry(key cacheKey) *cacheEntry {
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e != nil {
		return e
	}
	c.mu.Lock()
	if e = c.entries[key]; e == nil && len(c.entries) < maxTickCacheEntries {
		e = &cacheEntry{gen: c.gen}
		c.entries[key] = e
	}
	c.mu.Unlock()
	return e
}
