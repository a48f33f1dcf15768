package main

import "fmt"

// A workload is a script: a sequence of operations that is a pure function
// of (workload, seed). Each tenant is owned by exactly one connection and
// fleet-wide operations run at a barrier with the other connection idle, so
// every tenant sees one fixed operation order however the two connections
// interleave. That is what makes counts exact and responses checkable.

type opKind uint8

const (
	opPredict opKind = iota
	opBatch
	opObserve
	opAccuracy
	opAdvance // one tenant, or the whole fleet when tenant < 0
	opSchedule
	numOpKinds
)

var opNames = [numOpKinds]string{"predict", "batch", "observe", "accuracy", "advance", "schedule"}

type batchItem struct {
	tenant, shape int
	levels        bool
}

type op struct {
	kind   opKind
	tenant int // fleet index; -1 = fleet-wide
	shape  int
	levels bool
	items  []batchItem // opBatch
	jobs   []jobSpec   // opSchedule
}

// advanceSeconds is one sensor period: every advance is exactly one tick of
// every monitor the tenant owns.
const advanceSeconds = 5.0

const conns = 2 // reference nproc = 2: one generator connection per CPU

// workload describes one traffic mix. round produces one connection's next
// round of calls; leader produces the fleet-wide calls made at the barrier
// before an epoch of epochRounds rounds.
type workload struct {
	name    string
	tenants int
	warmup  float64 // virtual seconds of monitor history at instantiation
	// rate is the middle open-loop arrival rate, in calls/s over both
	// connections, of the traced run's rate sweep; 0 means the workload has
	// no open-loop form. The bounded end-to-end run is always a closed loop
	// (each connection sends its next call on reply): see README.md, "Why
	// the bounded run is a closed loop".
	rate        float64
	epochRounds int
	// sliceEpochs is how many consecutive epochs make one slice, the
	// equal-work stretch a rate or a median latency is computed over.
	sliceEpochs int
	round       func(g *connGen) []op
	leader      func(epoch int) []op
}

// smallFleet is 8 hot tenants; the warmup fills every 512-sample monitor
// ring (2560 virtual s) so per-tick cost does not drift during the run.
const (
	smallFleet       = 8
	smallFleetWarmup = 2600
	bigFleet         = 192
	bigFleetWarmup   = 120
)

// hotShapes are the 2 of 16 shapes hot-hit asks for: nearly every call
// finds them in the tick cache.
var hotShapes = []int{5, 10}

var workloads = []workload{
	{
		name: "hot-hit",
		// 2 of 16 shapes, ~98% tick-cache hits: net/http, the api codec, obs
		// middleware and the calibration overlay do the work. The bypass for
		// tournament and grid changes, the target for transport changes; the
		// traced run adds an open-loop sweep around rate.
		tenants: smallFleet, warmup: smallFleetWarmup, rate: 2000, epochRounds: 16, sliceEpochs: 1,
		round: hotHitRound,
	},
	{
		name: "tick-storm",
		// Every round advances one tenant a tick, then asks one scalar
		// prediction (always a miss): Advance (sensor, battery, tournament,
		// EM refit) dominates and transport is small.
		tenants: smallFleet, warmup: smallFleetWarmup, epochRounds: 128, sliceEpochs: 1,
		round: tickStormRound,
	},
	{
		name: "quantile-shapes",
		// One tick, then all 16 shapes with levels asked twice (16 grid
		// misses + 16 hits): the 64-draw LHS grid through the structural
		// model and per-quantile calibration dominate.
		tenants: smallFleet, warmup: smallFleetWarmup, epochRounds: 8, sliceEpochs: 2,
		round: quantileShapesRound,
	},
	{
		name: "fleet-ops",
		// 192 cold tenants, 32-item batches over mixed shapes, fleet-wide
		// advance and /schedule waves at barriers: registry lookups, cold
		// caches, the batch codec, fleetsched, the snapshot codec.
		tenants: bigFleet, warmup: bigFleetWarmup, epochRounds: fleetEpochRounds, sliceEpochs: 2,
		round: fleetOpsRound, leader: fleetOpsLeader,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// connGen is one connection's script state. pending marks owned tenants
// holding a prediction no observe has consumed, so a script never observes
// an ID the ledger cannot know.
type connGen struct {
	conn    int
	r       *rng
	k       int   // rounds generated so far
	owned   []int // fleet indexes this connection owns
	pending map[int]bool
}

func newConnGen(w *workload, seed int64, conn int) *connGen {
	g := &connGen{conn: conn, r: newRNG(fnv64(w.name), uint64(seed), uint64(conn)), pending: map[int]bool{}}
	for t := conn; t < w.tenants; t += conns {
		g.owned = append(g.owned, t)
	}
	return g
}

func (g *connGen) predict(tenant, shape int, levels bool) op {
	g.pending[tenant] = true
	return op{kind: opPredict, tenant: tenant, shape: shape, levels: levels}
}

func (g *connGen) observe(tenant int) op {
	g.pending[tenant] = false
	return op{kind: opObserve, tenant: tenant}
}

// hotHitCalls is the number of calls in one hot-hit round.
const hotHitCalls = 64

// hotHitRound: 70% predict on the hot shapes, 25% observe, 4.5% accuracy,
// 0.5% single-tenant advance. An observe with nothing pending on the drawn
// tenant falls back to a predict, so no call can fail. (The issue asked for
// 4% / 1%; at 1% the amortised cost of the advances alone kept transport +
// api + obs under the 70% of loopback-depth time this workload exists to
// show, so the mix moved and the thresholds did not. README.md, "Shares".)
func hotHitRound(g *connGen) []op {
	ops := make([]op, 0, hotHitCalls)
	for i := 0; i < hotHitCalls; i++ {
		t := g.owned[g.r.intn(len(g.owned))]
		switch u := g.r.float(); {
		case u < 0.70:
			ops = append(ops, g.predict(t, hotShapes[g.r.intn(len(hotShapes))], false))
		case u < 0.95:
			if g.pending[t] {
				ops = append(ops, g.observe(t))
			} else {
				ops = append(ops, g.predict(t, hotShapes[g.r.intn(len(hotShapes))], false))
			}
		case u < 0.995:
			ops = append(ops, op{kind: opAccuracy, tenant: t})
		default:
			ops = append(ops, op{kind: opAdvance, tenant: t})
		}
	}
	g.k++
	return ops
}

// tickStormRound: advance one owned tenant a tick, ask one scalar shape
// (the advance emptied the tick cache, so it is always a miss), and observe
// it every 2nd round.
func tickStormRound(g *connGen) []op {
	t := g.owned[g.k%len(g.owned)]
	ops := []op{{kind: opAdvance, tenant: t}, g.predict(t, g.r.intn(len(shapes)), false)}
	if g.k%2 == 1 {
		ops = append(ops, g.observe(t))
	}
	g.k++
	return ops
}

// quantileShapesRound: one tick, then every shape with levels (16 misses
// that each compute the grid, every 2nd one observed), then every shape
// again (16 hits that only pay the per-quantile overlay).
func quantileShapesRound(g *connGen) []op {
	t := g.owned[g.k%len(g.owned)]
	ops := make([]op, 0, 1+len(shapes)*5/2)
	ops = append(ops, op{kind: opAdvance, tenant: t})
	for s := range shapes {
		ops = append(ops, g.predict(t, s, true))
		if s%2 == 0 {
			ops = append(ops, g.observe(t))
		}
	}
	for s := range shapes {
		ops = append(ops, g.predict(t, s, true))
	}
	g.k++
	return ops
}

// fleet-ops constants. A barrier falls every 25 rounds; barriers alternate
// between a fleet-wide advance and a /schedule wave, so each happens every
// 50 rounds. (The issue asked for a wave every 25 rounds; a wave scores
// every job on all 192 tenants and at that cadence took two thirds of the
// wall time, leaving batch serving — the thing this workload is for — the
// rest.) The wave's jobs are small and alike: some finish within the few
// ticks a run advances and feed back through the scheduler's own Observe
// path, and jobs 2..6 find job 1's grid in the tick cache, so the wave
// prices fleetsched's loop rather than six more grid passes.
const (
	fleetBatch       = 32
	fleetEpochRounds = 25
	fleetObserveEach = 8  // every 8th round ...
	fleetObserves    = 16 // ... observes 16 of the batch's predictions
	fleetJobs        = 6
)

// fleetOpsRound: one 32-item batch over a rotating window of 32 owned
// tenants, mixed shapes, a quarter asking levels.
func fleetOpsRound(g *connGen) []op {
	items := make([]batchItem, fleetBatch)
	start := (g.k * fleetBatch) % len(g.owned)
	for j := range items {
		t := g.owned[(start+j)%len(g.owned)]
		items[j] = batchItem{tenant: t, shape: g.r.intn(len(shapes)), levels: g.r.float() < 0.25}
		g.pending[t] = true
	}
	ops := []op{{kind: opBatch, tenant: -1, items: items}}
	if g.k%fleetObserveEach == fleetObserveEach-1 {
		for j := 0; j < fleetObserves; j++ {
			ops = append(ops, g.observe(items[j].tenant))
		}
	}
	g.k++
	return ops
}

// fleetOpsLeader: even barriers advance the whole fleet one tick, odd ones
// submit a 6-job /schedule wave.
func fleetOpsLeader(epoch int) []op {
	if epoch%2 == 0 {
		return []op{{kind: opAdvance, tenant: -1}}
	}
	jobs := make([]jobSpec, fleetJobs)
	for j := range jobs {
		jobs[j] = jobSpec{N: 400, Iterations: 10 + 10*(epoch/2%3)}
	}
	return []op{{kind: opSchedule, tenant: -1, jobs: jobs}}
}

// primingOps touches every (owned tenant, shape) once: tenants instantiate,
// every bandwidth monitor a later call needs exists (they are created
// lazily per distinct grid size and then cost every later Advance), and the
// measured phase starts from a steady state.
func primingOps(g *connGen) []op {
	ops := make([]op, 0, len(g.owned)*len(shapes))
	for _, t := range g.owned {
		for s := range shapes {
			ops = append(ops, op{kind: opPredict, tenant: t, shape: s})
		}
	}
	return ops
}
