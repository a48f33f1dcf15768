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
// The cache is a tree with the levels the pipeline's inputs have, each
// datum worked out once at the level below which it cannot differ:
//
//   - tick (tickFrame): the monitors' reports are one fact between two
//     Advance calls, whatever is asked of them;
//   - size (sizeFrame, one per sizeKey): the partition, the bandwidth
//     forecast and the model's per-phase-pair value depend on the grid size
//     and the strategies, not on the iteration count;
//   - shape (cacheEntry, one per shapeKey under a size): the iteration
//     count and relation only scale the size's value.
//
// Coherence rule: cache generation == virtual clock. Advance bumps the
// generation and drops the whole tree under the service's clock write lock,
// so nothing computed at one tick can be served at another — readers hold
// the clock read lock for the whole lookup-or-compute, and the swap happens
// only while no reader is inside.
//
// Per-request state (ledger ID, calibration multiplier) is deliberately
// not cached: each hit still issues a fresh ID and applies the calibrator's
// current scale, so the Observe feedback loop behaves exactly as it does on
// the uncached path.
//
// The tree is bounded: a generation holds at most maxTickCacheEntries shapes
// (a size exists only under a shape that asked for it, so there are no more
// sizes than that) and computes any further shape per call — over its size's
// frame if the tick has one, which stores nothing new — so a service whose
// clock nobody moves cannot be grown without limit by distinct request
// shapes.
type tickCache struct {
	mu     sync.RWMutex // guards gen, tick, shapes and every index map of the tree
	gen    uint64
	tick   *tickFrame
	shapes int // entries under tick, over all its sizes
}

// sizeKey is the part of the request shape the partition, the bandwidth
// forecast and the per-phase-pair value depend on; shapeKey is the rest.
// Requests carrying a pinned Partition bypass the cache entirely (the
// experiments' knob — their output depends on caller state the keys cannot
// name).
type sizeKey struct {
	n            int
	strategy     sched.Strategy
	timeBalanced bool
	maxStrategy  stochastic.MaxStrategy
}

type shapeKey struct {
	iterations   int
	iterationRel structural.Relation
}

func keysFor(req Request) (sizeKey, shapeKey) {
	return sizeKey{
			n:            req.N,
			strategy:     req.Strategy,
			timeBalanced: req.TimeBalanced,
			maxStrategy:  req.MaxStrategy,
		}, shapeKey{
			iterations:   req.Iterations,
			iterationRel: req.IterationRel,
		}
}

// tickFrame is the tick level: the per-machine load reports, read once.
// A frame outside the cache (an uncacheable request, a service without a
// cache) has no index and serves one computation.
type tickFrame struct {
	sizes map[sizeKey]*sizeFrame // guarded by tickCache.mu

	// mu serializes the read: the first goroutine to need the reports takes
	// them, the rest wait and share them — or the error.
	mu      sync.Mutex
	done    bool
	err     error
	loads   []stochastic.Value
	reports []MachineReport
	dists   []nws.LoadDist
	tag     string // dominantForecaster(dists)
}

// sizeFrame is the size level: everything between the load reports and the
// iteration count.
type sizeFrame struct {
	tick   *tickFrame
	shapes map[shapeKey]*cacheEntry // guarded by tickCache.mu

	// mu serializes the computation, as tickFrame.mu does one level up.
	mu        sync.Mutex
	done      bool
	err       error
	partition *sor.Partition
	bandwidth stochastic.Value
	bwGaps    nws.GapStats
	// eval is built for the first shape that asked; only its Phase and
	// PhaseValue are read, which do not depend on the iteration count.
	eval  *structural.SORPoint
	phase stochastic.Value // MaxComp + MaxComm at the reports and bandwidth

	// The distSamples point draws of the phase pair, sorted, are a lazy memo:
	// the first distribution-requesting prediction of any shape under this
	// size runs them, and every shape scales them by its own iteration
	// count. nil when the model refused a draw.
	drawsOnce sync.Once
	draws     []float64
}

// cacheEntry is one memoized pipeline result. The first goroutine to reach
// a fresh entry computes under the entry lock; concurrent requests for the
// same shape block on it and then read the result, so the pipeline runs at
// most once per (shape, tick) even under a request storm.
type cacheEntry struct {
	mu   sync.Mutex
	done bool
	core *predictionCore
	err  error
}

// predictionCore is the tick-scoped, request-shape-scoped part of a
// Prediction: everything Predict returns except the per-request ledger ID
// and calibration overlay. What does not depend on the iteration count stays
// on the size frame. Loads and Partition are shared across every prediction
// served from one frame; callers own Prediction values but must not mutate
// these slices (the pre-cache contract already shared Partition).
type predictionCore struct {
	size *sizeFrame
	raw  stochastic.Value
	k    float64 // structural.PhasePairs(iterations): Time = k·Phase

	// The distribution grid is a lazy memo: the first distribution-requesting
	// prediction served from this core scales the size's sorted phase draws
	// and reads the uncalibrated execution-time quantile grid at
	// nws.DistLevels off them. Requests that never ask never pay. Laziness
	// cannot change the result: the clock read lock is held for the whole
	// serve, so the inputs are the same whenever within the tick the
	// transform runs. Like loads and partition, distRaw is shared across
	// predictions served from this core and must not be mutated; the
	// per-level conformal calibration of the grid is per-request overlay,
	// applied outside the memo exactly like the symmetric half-width
	// multiplier.
	distOnce sync.Once
	distRaw  []float64
}

// dist resolves the memoized distribution grid on first demand. Safe for
// concurrent callers; a core that is never asked never computes it. Callers
// hold the service's clock read lock, so the frozen inputs cannot move
// underneath the computation.
func (c *predictionCore) dist(s *Service) []float64 {
	c.distOnce.Do(func() {
		c.distRaw = distGrid(s.phaseDraws(c.size), c.k, c.raw)
	})
	return c.distRaw
}

func newTickCache() *tickCache {
	return &tickCache{tick: newTickFrame()}
}

func newTickFrame() *tickFrame {
	return &tickFrame{sizes: make(map[sizeKey]*sizeFrame)}
}

// invalidate starts a new generation, dropping the whole tree. Callers must
// hold the owning service's clock write lock so no reader is mid-lookup.
func (c *tickCache) invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gen++
	c.tick = newTickFrame()
	c.shapes = 0
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

// frame returns the current tick's frame.
func (c *tickCache) frame() *tickFrame {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tick
}

// maxTickCacheEntries bounds the shapes one generation memoizes.
const maxTickCacheEntries = 4096

// lookup walks the tree without creating anything.
func (c *tickCache) lookup(size sizeKey, shape shapeKey) (*sizeFrame, *cacheEntry) {
	sz := c.tick.sizes[size]
	if sz == nil {
		return nil, nil
	}
	return sz, sz.shapes[shape]
}

// entry returns the live entry for a request shape and the size frame it
// hangs under, creating empty ones on first touch. When the shape is new and
// the generation is full there is no entry, and a frame only if the size has
// been asked before. The double-checked read keeps the common hit path on
// the shared read lock.
func (c *tickCache) entry(size sizeKey, shape shapeKey) (*sizeFrame, *cacheEntry) {
	c.mu.RLock()
	sz, e := c.lookup(size, shape)
	c.mu.RUnlock()
	if e != nil {
		return sz, e
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sz, e = c.lookup(size, shape); e != nil || c.shapes >= maxTickCacheEntries {
		return sz, e
	}
	if sz == nil {
		sz = &sizeFrame{tick: c.tick, shapes: make(map[shapeKey]*cacheEntry)}
		c.tick.sizes[size] = sz
	}
	e = &cacheEntry{}
	sz.shapes[shape] = e
	c.shapes++
	return sz, e
}
