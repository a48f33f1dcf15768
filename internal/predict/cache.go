package predict

import (
	"sync"

	"prodpred/internal/nws"
	"prodpred/internal/sched"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
)

// The tick cache memoizes the expensive half of Predict — monitor read,
// robust forecast, partition choice, and structural-model evaluation — within
// one virtual tick. The pipeline is a pure function of (monitor state,
// request shape), and monitor state only changes when the virtual clock
// advances, so every Predict between two Advance calls can share what it
// works out.
//
// The cache has the two levels the pipeline's inputs have, each datum worked
// out once at the level below which it cannot differ:
//
//   - tick (tickFrame): the monitors' reports are one fact between two
//     Advance calls, whatever is asked of them;
//   - size (sizeFrame, one per sizeKey): the partition, the bandwidth
//     forecast, the model's per-phase-pair value and its sorted phase draws
//     depend on the grid size and the strategies, not on the iteration
//     count.
//
// A request's iteration count and relation only scale its size's value
// (the SOR model is k phase pairs of time-invariant parameters), so that
// arithmetic is per request, in finishPrediction, and not cached.
//
// Coherence rule: the service's gen counts clock movements. Advance bumps it
// and replaces Service.tick under the clock write lock, so nothing computed
// at one tick can be served at another — readers hold the clock read lock
// for the whole lookup-or-compute, and the swap happens only while no reader
// is inside.
//
// Per-request state (ledger ID, calibration overlay) is deliberately not
// cached: each request issues a fresh ID and applies the calibrator's current
// state, so the Observe feedback loop behaves exactly as it does on the
// uncached path.

// sizeKey is the part of the request shape the partition, the bandwidth
// forecast and the per-phase-pair value depend on. Requests carrying a pinned
// Partition have no key (the experiments' knob — their output depends on
// caller state the key cannot name).
type sizeKey struct {
	n            int
	strategy     sched.Strategy
	timeBalanced bool
	maxStrategy  stochastic.MaxStrategy
}

// maxTickSizes bounds the sizes one tick stores: any further size is worked
// out per call over a frame of its own, so a service whose clock nobody
// moves cannot be grown without limit by distinct request shapes.
const maxTickSizes = 4096

// tickFrame is the tick level: the per-machine load reports, read once, and
// the tick's size frames. A tick frame outside the service (the tests'
// uncached reference) serves one computation.
type tickFrame struct {
	sizesMu sync.RWMutex
	sizes   map[sizeKey]*sizeFrame

	// readOnce runs the read: the first goroutine to need the reports takes
	// them, the rest wait and share them.
	readOnce sync.Once
	loads    []stochastic.Value
	reports  []MachineReport
	dists    []nws.LoadDist
	tag      string // dominantForecaster(dists)
}

func newTickFrame() *tickFrame {
	return &tickFrame{sizes: make(map[sizeKey]*sizeFrame)}
}

// size returns the tick's frame for req's grid size, creating an empty one
// on first touch, or a frame of its own over the tick's reports for a pinned
// Partition or once the tick holds maxTickSizes sizes. The double-checked
// read keeps the common path on the shared read lock.
func (t *tickFrame) size(req Request) *sizeFrame {
	if req.Partition != nil {
		return &sizeFrame{tick: t}
	}
	key := sizeKey{
		n:            req.N,
		strategy:     req.Strategy,
		timeBalanced: req.TimeBalanced,
		maxStrategy:  req.MaxStrategy,
	}
	t.sizesMu.RLock()
	sz := t.sizes[key]
	t.sizesMu.RUnlock()
	if sz != nil {
		return sz
	}
	t.sizesMu.Lock()
	defer t.sizesMu.Unlock()
	if sz = t.sizes[key]; sz != nil {
		return sz
	}
	sz = &sizeFrame{tick: t}
	if len(t.sizes) < maxTickSizes {
		t.sizes[key] = sz
	}
	return sz
}

// sizeFrame is the size level: everything between the load reports and the
// iteration count.
type sizeFrame struct {
	tick *tickFrame

	// once runs the computation: the first request of the size takes it,
	// the rest wait and share it, its error memoized with the rest.
	once      sync.Once
	err       error
	partition *sor.Partition
	bandwidth stochastic.Value
	bwGaps    nws.GapStats
	// eval is built for the first request that asked; only its Phase and
	// PhaseValue are read, which do not depend on the iteration count.
	eval  *structural.SORPoint
	phase stochastic.Value // MaxComp + MaxComm at the reports and bandwidth

	// The distSamples point draws of the phase pair, sorted, are a lazy memo:
	// the first distribution-requesting prediction of this size runs them,
	// and every request scales them by its own iteration count. nil when the
	// model refused a draw.
	drawsOnce sync.Once
	draws     []float64
}
