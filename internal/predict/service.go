package predict

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"prodpred/internal/calib"
	"prodpred/internal/cluster"
	"prodpred/internal/dist"
	"prodpred/internal/faults"
	"prodpred/internal/load"
	"prodpred/internal/nws"
	"prodpred/internal/obs"
	"prodpred/internal/sched"
	"prodpred/internal/simenv"
	"prodpred/internal/sor"
	"prodpred/internal/stats"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
)

// timeBalanceRefinements is the fixed-point refinement depth of the
// AppLeS-style time-balanced partitioner.
const timeBalanceRefinements = 8

// Config is a PlatformSpec materialized (PlatformSpec.Config): the platform
// a Service owns and how it is monitored. Services are built from specs
// only; Config is for code that wants a spec's platform and load processes
// without a service, such as the benchmark harness's ground-truth
// environments.
type Config struct {
	// Platform is the machine/link description.
	Platform *cluster.Platform
	// CPU holds one load process per machine.
	CPU []load.Process
	// Net is the network contention process; a load.Constant network is
	// treated as contention-free and left unmonitored.
	Net load.Process
	// History is the monitor ring size (512 when zero). Sensors sample every
	// nws.DefaultPeriod virtual seconds, the paper's NWS cadence.
	History int
	// Injector, when non-nil, wraps every CPU sensor with its per-machine
	// deterministic fault schedule.
	Injector *faults.Injector
}

// bwMonitor is the bandwidth monitor of one probe size (bytes).
type bwMonitor struct {
	probe float64
	mon   *nws.Monitor
}

// Service is a long-lived, goroutine-safe prediction service over one
// simulated production platform. It owns the platform's NWS monitors and a
// shared virtual clock; Advance moves time forward (taking all due
// measurements), and Predict answers requests at the current time. All
// methods may be called concurrently; results are deterministic for a
// given seed and clock schedule because every sensor and fault decision is
// a pure function of virtual time.
//
// Locking: one lock per owner. clockMu orders everything against clock
// movement — Advance holds it exclusively while it moves the clock, runs
// monitors forward and invalidates the tick cache, and a snapshot export
// holds it exclusively for a consistent cut; every reader (Predict, Readout,
// Observe, ...) holds it shared, so all requests between two advances see
// one frozen monitor state. A fleet-wide wave holds it exclusively only to
// move the clock; the monitors then catch up under the shared lock and
// monMu, on a background worker or on the first reader, whichever comes
// first, and land where an eager step would have left them.
// Under the shared clock lock, monMu serializes access to the
// (non-thread-safe) monitors, and ledgerMu guards the Observe ledger; whoever
// holds the clock lock exclusively is alone on the service and takes neither
// for the monitors. Lock order: clockMu > size frame > tick frame > monMu >
// ledgerMu; a tick frame's size table lock and the calibration tracker's own
// internal lock are never held across another.
type Service struct {
	name     string
	plat     *cluster.Platform
	env      *simenv.Env
	machines []cluster.Machine
	link     cluster.Link
	netMon   bool
	history  int

	// spec is the declarative description the service was built from. The
	// snapshot restore path rebuilds the static structure (platform, load
	// processes, faults) from it and imports only dynamic state on top.
	spec *PlatformSpec

	clockMu sync.RWMutex
	now     float64

	// monMu guards the monitors and the bandwidth list for holders of the
	// shared clock lock. The tick cache makes that one read of the CPU
	// monitors per tick and one of a bandwidth monitor per (tick, grid size),
	// so there is nothing for a finer lock to keep apart.
	monMu sync.Mutex
	cpu   []*nws.Monitor // one per machine
	// bw holds the bandwidth monitors in ascending probe size — the order a
	// tick and a snapshot walk them in — each built, caught up and inserted
	// by the first request for its grid size.
	bw []bwMonitor

	// tick is the tick cache (cache.go): all Predicts between two Advance
	// calls share one read of the monitors, and those of one grid size one
	// partition and model evaluation. Advance replaces it under the clock
	// write lock, so holders of the shared clock lock read it without one of
	// its own. Only the tests' cached ≡ uncached references set it nil, which
	// sends every request through the whole pipeline over a frame of its own.
	tick *tickFrame
	// gen counts the clock movements since the service was built, each of
	// which replaced tick; guarded by clockMu.
	gen uint64

	// queued says the service waits in the background catch-up queue
	// (queueCatchUps), so a step queues it at most once.
	queued atomic.Bool

	// design is the fixed Latin-hypercube sample the distribution transform
	// evaluates the structural model over — one column per machine plus one
	// for the bandwidth fraction — tabulated in the form the grid reads it.
	// Fixed for the machine count, and shared by every service of that
	// count, so predictions stay a pure function of monitor state.
	design *distDesign

	// Online accuracy state: the per-platform tracker plus the ledger of
	// issued-but-unobserved predictions the Observe path resolves against.
	// The tracker locks internally; ledgerMu guards the ledger.
	tracker  *calib.Tracker
	ledgerMu sync.Mutex
	ledger   ledger

	// Telemetry (nil when the service was built without a metrics
	// registry).
	metrics *serviceMetrics
}

// newService builds the service the spec describes: one fault-injectable CPU
// monitor per machine, a lazily grown set of bandwidth monitors, and the
// clock at virtual time zero. No measurements are taken until the clock
// advances. metrics, when non-nil, receives the service's telemetry:
// per-platform pipeline counters, gauges that read the service when
// scraped, and per-stage wall-clock latency histograms (see the predict
// Metric* constants). Nil disables
// instrumentation at near-zero cost; telemetry never feeds back into
// predictions, so same-seed determinism is unaffected either way.
func newService(spec *PlatformSpec, metrics *obs.Registry) (*Service, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	env, err := simenv.New(cfg.Platform, cfg.CPU, cfg.Net)
	if err != nil {
		return nil, err
	}
	history := cfg.History
	if history == 0 {
		history = 512
	}
	tracker, err := calib.New(calib.Config{})
	if err != nil {
		return nil, err
	}
	p := cfg.Platform.Size()
	s := &Service{
		name:     cfg.Platform.Name,
		plat:     cfg.Platform,
		env:      env,
		machines: make([]cluster.Machine, p),
		spec:     spec.clone(),
		cpu:      make([]*nws.Monitor, p),
		history:  history,
		tick:     newTickFrame(),
		tracker:  tracker,
		design:   sharedDistDesign(p),
	}
	_, constant := cfg.Net.(load.Constant)
	s.netMon = !constant
	if s.link, err = cfg.Platform.Link(0, 1); err != nil {
		return nil, err
	}
	for i := 0; i < p; i++ {
		s.machines[i] = cfg.Platform.Machine(i)
		sensor, err := nws.CPUSensor(env, i)
		if err != nil {
			return nil, err
		}
		if cfg.Injector != nil {
			sensor = cfg.Injector.Sensor(i, sensor)
		}
		if s.cpu[i], err = nws.NewSensorMonitor(sensor, nws.DefaultPeriod, history); err != nil {
			return nil, err
		}
	}
	// The function series read the monitors, so a scrape may only see the
	// service once they all exist.
	if s.metrics = newServiceMetrics(metrics, s); s.metrics != nil {
		for _, mon := range s.cpu {
			mon.CountRefits(s.metrics.recordRefit)
		}
	}
	return s, nil
}

// Name returns the platform name the service answers for.
func (s *Service) Name() string { return s.name }

// Platform returns the platform description.
func (s *Service) Platform() *cluster.Platform { return s.plat }

// Spec returns the declarative spec the service was built from.
func (s *Service) Spec() *PlatformSpec { return s.spec }

// Env exposes the simulated environment, read-only in virtual time — the
// seam execution backends (sor.NewSimBackend) attach to.
func (s *Service) Env() *simenv.Env { return s.env }

// Machines returns the platform's machine descriptions.
func (s *Service) Machines() []cluster.Machine {
	return append([]cluster.Machine(nil), s.machines...)
}

// Now returns the current virtual time, in virtual seconds.
func (s *Service) Now() float64 {
	s.clockMu.RLock()
	defer s.clockMu.RUnlock()
	return s.now
}

// CacheGeneration returns the tick cache's generation counter: the number
// of clock movements since the service was built. The coherence invariant
// is generation == virtual clock — a cached forecast is never served across
// an Advance.
func (s *Service) CacheGeneration() uint64 {
	s.clockMu.RLock()
	defer s.clockMu.RUnlock()
	return s.gen
}

// Advance moves the clock forward by dt virtual seconds, taking every
// sensor measurement that falls due: under the exclusive clock lock the
// clock moves (moveClockLocked) and every monitor runs forward to it on the
// calling goroutine (catchUpLocked); the tenant then queues itself for the
// background (queueCatchUps), which runs the mixture refits that fell due.
// A tenant's own step samples on the caller because its caller reads the
// tenant next; a fleet-wide wave moves every clock first and leaves the
// sampling to the background too (Registry.AdvanceAll).
func (s *Service) Advance(dt float64) error {
	if dt < 0 {
		return fmt.Errorf("predict: negative advance %g", dt)
	}
	s.clockMu.Lock()
	s.moveClockLocked(s.now + dt)
	s.catchUpLocked()
	s.clockMu.Unlock()
	queueCatchUps(s)
	return nil
}

// moveClock is the clock half of a step of dt >= 0: what a fleet-wide wave
// does to each tenant before it returns. It returns the clock as it left it.
func (s *Service) moveClock(dt float64) float64 {
	s.clockMu.Lock()
	defer s.clockMu.Unlock()
	s.moveClockLocked(s.now + dt)
	return s.now
}

// moveClockLocked moves the clock to t under the exclusive clock lock
// without running a monitor. The environment's load processes are held at t
// (simenv.Env.Hold): the ticks a truth walk generated ahead of the clock stay
// kept until the clock passes them, and the monitors' own new ticks up to t
// are no look-ahead. A real move replaces the tick frame, so no forecast of
// the old tick is served at the new one; a no-op move (t == now) leaves the
// cache intact — monitor state cannot have changed.
func (s *Service) moveClockLocked(t float64) {
	moved := t != s.now
	s.now = t
	s.env.Hold(t)
	if moved {
		s.gen++
		if s.tick != nil {
			s.tick = newTickFrame()
		}
	}
}

// catchUpLocked runs every monitor forward to the clock, CPU monitors in
// machine order, then bandwidth monitors in ascending probe size: normally
// a no-op, since a step caught them up, but after a fleet-wide wave the
// first of a tenant's readers and its background catch-up find them behind,
// and whichever takes monMu first does the sampling. Nothing reads a
// monitor without calling it first, so no reader sees a monitor behind its
// clock. Callers hold the clock lock exclusively, or shared with monMu.
//
// The order is for the reader, not the result: every monitor's evolution is
// a pure function of its own sample stream (no cross-monitor state), so each
// lands on the same bits whenever it runs and whatever runs beside it.
// A mixture refit that falls due is only recorded: it stays pending until
// a background worker takes it (TakeRefit) or the next round or read
// installs it.
// Monitor.RunUntil's error is documented always nil (a failed sample is a
// gap, not an error).
func (s *Service) catchUpLocked() {
	for _, mon := range s.cpu {
		_ = mon.RunUntil(s.now)
	}
	for _, b := range s.bw {
		_ = b.mon.RunUntil(s.now)
	}
}

// takeRefitsLocked hands out the mixture refits the CPU monitors have left
// pending and no one has taken yet (Monitor.TakeRefit). Callers hold the
// locks catchUpLocked asks for.
func (s *Service) takeRefitsLocked() []*nws.Refit {
	var refits []*nws.Refit
	for _, mon := range s.cpu {
		if j := mon.TakeRefit(); j != nil {
			refits = append(refits, j)
		}
	}
	return refits
}

// catchUp is the background half of a step: it catches the monitors up to
// the clock under the shared clock lock and monMu (a no-op after a tenant's
// own step), then runs the mixture refits that fell due (on a step or on a
// read's catch-up before it) with no lock held.
func (s *Service) catchUp() {
	s.clockMu.RLock()
	s.monMu.Lock()
	s.catchUpLocked()
	refits := s.takeRefitsLocked()
	s.monMu.Unlock()
	s.clockMu.RUnlock()
	for _, j := range refits {
		j.Run()
	}
}

// background is the process's one catch-up queue, which every step feeds,
// whichever registry it belongs to: behind holds the tenants a step moved
// the clock of and no worker has caught up yet, each at most once
// (Service.queued), and workers counts the goroutines draining it, at most
// backgroundWorkers() — one processor is left to the requests, the one
// waiting on the step first. A read that needs a refit first runs it itself
// or waits for it, so nothing waits on the workers. running counts them for
// WaitRefits; spawned counts every worker started, for the tests that pin
// how many. mu guards behind and workers.
var background struct {
	mu      sync.Mutex
	behind  []*Service
	workers int
	running sync.WaitGroup
	spawned atomic.Int64
}

// queueCatchUps queues the services a step moved and starts as many
// workers as the queue can use, up to backgroundWorkers() running.
func queueCatchUps(services ...*Service) {
	b := &background
	b.mu.Lock()
	for _, svc := range services {
		if svc.queued.CompareAndSwap(false, true) {
			b.behind = append(b.behind, svc)
		}
	}
	start := max(min(backgroundWorkers()-b.workers, len(b.behind)), 0)
	b.workers += start
	b.running.Add(start)
	b.mu.Unlock()
	b.spawned.Add(int64(start))
	for ; start > 0; start-- {
		go catchUpWorker()
	}
}

// catchUpWorker catches queued tenants up until the queue is empty. A
// tenant leaves the queue before it is caught up, so a step that moves it
// meanwhile queues it again rather than leave it behind.
func catchUpWorker() {
	b := &background
	defer b.running.Done()
	for {
		b.mu.Lock()
		if len(b.behind) == 0 {
			b.behind = nil
			b.workers--
			b.mu.Unlock()
			return
		}
		svc := b.behind[0]
		b.behind[0] = nil
		b.behind = b.behind[1:]
		svc.queued.Store(false)
		b.mu.Unlock()
		svc.catchUp()
	}
}

// backgroundWorkers is how many goroutines background work may take: one
// per processor but one, and at least one.
func backgroundWorkers() int { return max(runtime.GOMAXPROCS(0)-1, 1) }

// WaitRefits blocks until every catch-up a step queued, and the refits it
// runs, started so far, has run: the drain a benchmark or test takes between
// clock steps so that the next one is timed alone, after which every
// tenant's monitors stand at its clock. No step may start background work
// while it waits.
func WaitRefits() { background.running.Wait() }

// missedTotal sums the missed-sample counters of every monitor: what the
// fault-gap counter reads.
func (s *Service) missedTotal() int {
	s.clockMu.RLock()
	defer s.clockMu.RUnlock()
	s.monMu.Lock()
	defer s.monMu.Unlock()
	s.catchUpLocked()
	missed := 0
	for _, mon := range s.cpu {
		missed += mon.Gaps().Missed
	}
	for _, b := range s.bw {
		missed += b.mon.Gaps().Missed
	}
	return missed
}

func (s *Service) checkPlatform(name string) error {
	if name != "" && name != s.name {
		return fmt.Errorf("predict: request for platform %q on service for %q", name, s.name)
	}
	return nil
}

// Ceilings on the job shape a request may name. A prediction costs the
// same whatever the shape, so these only keep the arithmetic downstream
// safe and the per-shape state bounded: at the ceilings the element count
// N²·Iterations is 2^52, exact in an int and in a float64, and the grid
// alone is 2 GiB, eight times the memory of the largest catalog machine.
// Whoever does work in proportion to the shape bounds that work itself
// (fleetsched.MaxJobWork).
//
// MaxProbeSizes bounds the state a grid size leaves behind: every distinct
// N on a monitored network gets its own bandwidth monitor (the probe is one
// ghost row), a full ring that every later Advance catches up. A platform
// keeps at most MaxProbeSizes of them and refuses the request that would
// need one more; a restored snapshot keeps whatever its image holds.
const (
	MaxGridSize   = 1 << 14
	MaxIterations = 1 << 24
	MaxProbeSizes = 64
)

// CheckJobShape validates the grid size and iteration count of an SOR job,
// wherever one is named: a prediction request or a scheduled job.
func CheckJobShape(n, iterations int) error {
	if n < 3 {
		return fmt.Errorf("predict: grid size %d too small (need N >= 3)", n)
	}
	if n > MaxGridSize {
		return fmt.Errorf("predict: grid size %d exceeds limit %d", n, MaxGridSize)
	}
	if iterations <= 0 {
		return fmt.Errorf("predict: iterations must be positive, got %d", iterations)
	}
	if iterations > MaxIterations {
		return fmt.Errorf("predict: iterations %d exceeds limit %d", iterations, MaxIterations)
	}
	return nil
}

func validateRequest(req Request) error {
	if err := CheckJobShape(req.N, req.Iterations); err != nil {
		return err
	}
	for _, l := range req.Levels {
		if !(l > 0 && l < 1) {
			return fmt.Errorf("predict: interval level %g outside (0,1)", l)
		}
	}
	return nil
}

// readLoads reads one stochastic load value per machine — the gap-aware
// RobustReport fallback chain (forecast -> running mean -> prior) — plus the
// per-machine diagnostic reports and the distribution-valued report behind
// each value (the tournament winner's quantile grid). Callers hold the
// shared clock lock; the read runs under monMu.
// The two pipeline stages it spans are timed separately: monitor_read
// (catching every monitor up to the current virtual time — a no-op after a
// tenant's own step, the sampling itself when a fleet-wide wave left the
// tenant to the background and this read came first) and forecast
// (producing the stochastic load reports).
func (s *Service) readLoads() ([]stochastic.Value, []MachineReport, []nws.LoadDist) {
	s.monMu.Lock()
	defer s.monMu.Unlock()
	read := s.metrics.startStage(stageMonitorRead)
	s.catchUpLocked()
	read.stop()
	defer s.metrics.startStage(stageForecast).stop()
	loads := make([]stochastic.Value, len(s.cpu))
	reports := make([]MachineReport, len(s.cpu))
	dists := make([]nws.LoadDist, len(s.cpu))
	for i, mon := range s.cpu {
		loads[i] = mon.RobustReport(s.now, DefaultCPUPrior)
		dists[i] = mon.RobustDistReport(s.now, DefaultCPUPrior)
		reports[i] = MachineReport{
			Machine:    i,
			Load:       loads[i],
			Raw:        s.env.RawCPUAvail(i, s.now),
			Staleness:  mon.Staleness(),
			Widening:   mon.DegradationFactor(),
			Gaps:       mon.Gaps(),
			Forecaster: dists[i].Forecaster,
			Components: dists[i].Components,
		}
		s.metrics.recordTournamentWin(dists[i].Forecaster)
	}
	return loads, reports, dists
}

// resolveTick fills the tick level of a frame — readLoads, once — and
// returns the frame. Callers hold the shared clock lock.
func (s *Service) resolveTick(tick *tickFrame) *tickFrame {
	tick.readOnce.Do(func() {
		tick.loads, tick.reports, tick.dists = s.readLoads()
		tick.tag = dominantForecaster(tick.dists)
	})
	return tick
}

func (s *Service) choosePartition(req Request, loads []stochastic.Value) (*sor.Partition, error) {
	defer s.metrics.startStage(stageSchedule).stop()
	if req.TimeBalanced {
		return sched.TimeBalancedPartition(req.N, s.machines, loads, s.link, timeBalanceRefinements)
	}
	return sched.SORPartition(req.N, s.machines, loads, req.Strategy)
}

// Partition chooses a strip decomposition from the current load reports
// under the request's strategy — the "schedule" step, split out so a run
// series can pin one decomposition (via Request.Partition) across many
// Predict calls, the way the paper fixes the schedule once per series.
func (s *Service) Partition(req Request) (*sor.Partition, error) {
	s.clockMu.RLock()
	defer s.clockMu.RUnlock()
	if err := s.checkPlatform(req.Platform); err != nil {
		return nil, err
	}
	if err := validateRequest(req); err != nil {
		return nil, err
	}
	return s.choosePartition(req, s.resolveTick(s.frame()).loads)
}

// frame returns the tick frame a request reads: the cache's — the one every
// Predict of this tick shares — or, with the cache off, a fresh one. Callers
// hold the shared clock lock.
func (s *Service) frame() *tickFrame {
	if s.tick == nil {
		return newTickFrame()
	}
	return s.tick
}

// bwReport returns the bandwidth fraction forecast for n's ghost-row-sized
// probe messages, under monMu. Its caller resolved the tick first, which
// caught every monitor it holds up to the clock. The first request for a probe size builds its
// monitor, catches it up to the clock and inserts it, all under that lock:
// for the length of one catch-up the same tenant's other first-of-tick reads
// wait (DESIGN.md §5 "Locks the size of the traffic" prices it), once per
// (tenant, grid size) per process lifetime. Monitors are pure functions of
// virtual time, so a late-created monitor has exactly the history an
// early-created one would. Its catch-up starts at tick 0, which the link's
// load process no longer keeps once the clock is past load.Window ticks, so
// the first sample rebuilds that process from its seed and the catch-up
// regenerates every tick up to now: one load replay, counted on /metrics
// and priced by the tenant's age in OPERATIONS.md "Memory and age".
func (s *Service) bwReport(n int) (stochastic.Value, nws.GapStats, error) {
	probeBytes := float64(n-2) * 8
	s.monMu.Lock()
	defer s.monMu.Unlock()
	i := sort.Search(len(s.bw), func(i int) bool { return s.bw[i].probe >= probeBytes })
	if i == len(s.bw) || s.bw[i].probe != probeBytes {
		if len(s.bw) >= MaxProbeSizes {
			return stochastic.Value{}, nws.GapStats{}, fmt.Errorf(
				"predict: grid size %d needs one more bandwidth probe size, exceeds limit %d per platform", n, MaxProbeSizes)
		}
		mon, err := nws.NewBandwidthMonitor(s.env, 0, 1, probeBytes, nws.DefaultPeriod, s.history)
		if err != nil {
			return stochastic.Value{}, nws.GapStats{}, err
		}
		if err := mon.RunUntil(s.now); err != nil {
			return stochastic.Value{}, nws.GapStats{}, err
		}
		s.bw = slices.Insert(s.bw, i, bwMonitor{probe: probeBytes, mon: mon})
	}
	mon := s.bw[i].mon
	bw := mon.RobustReport(s.now, stochastic.New(s.link.DedBW/2, s.link.DedBW/2))
	frac := bw.MulPoint(1 / s.link.DedBW)
	if frac.Mean <= 0.01 {
		frac = stochastic.New(0.01, frac.Spread)
	}
	return frac, mon.Gaps(), nil
}

// Predict answers one request at the current virtual time: read per-machine
// load reports, choose (or reuse) the partition, parameterize the SOR
// structural model, and evaluate it to a stochastic prediction. Between two
// Advance calls the pipeline result for a given grid size is computed once
// and served from the tick cache (each request still scales it by its own
// iteration count, issues a fresh ledger ID and applies the current
// calibration multiplier). When the service carries a metrics registry,
// the call records per-stage wall-clock latencies (monitor_read -> forecast
// once per tick, schedule -> model_eval once per grid size and tick, plus
// the whole call as stage "predict") and the per-platform counters/gauges.
func (s *Service) Predict(req Request) (Prediction, error) {
	s.clockMu.RLock()
	defer s.clockMu.RUnlock()
	call := s.metrics.startStage(stagePredict)
	p, err := s.predictShared(req)
	call.stop()
	if err != nil {
		s.metrics.recordError()
		return Prediction{}, err
	}
	return p, nil
}

// predictBatch answers reqs[i] for every i in idxs in one shared-clock
// visit, into preds[i] and errs[i]: every request resolves against the same
// frozen tick, distinct grid sizes run the pipeline once each, and repeated
// sizes are served from the tick cache. A failed request leaves a zero
// Prediction and its error at its index without failing the rest.
func (s *Service) predictBatch(reqs []Request, idxs []int, preds []Prediction, errs []error) {
	s.clockMu.RLock()
	defer s.clockMu.RUnlock()
	s.metrics.recordBatch(len(idxs))
	for _, i := range idxs {
		call := s.metrics.startStage(stagePredict)
		p, err := s.predictShared(reqs[i])
		call.stop()
		if err != nil {
			s.metrics.recordError()
			errs[i] = err
			continue
		}
		preds[i] = p
	}
}

// predictShared resolves one request under the shared clock lock: validate,
// fetch-or-compute the tick-scoped size frame, then work out the request's
// own share (iteration count, calibration, ledger ID).
func (s *Service) predictShared(req Request) (Prediction, error) {
	if err := s.checkPlatform(req.Platform); err != nil {
		return Prediction{}, err
	}
	if err := validateRequest(req); err != nil {
		return Prediction{}, err
	}
	sz := s.frame().size(req)
	if err := s.resolveSize(sz, req); err != nil {
		return Prediction{}, err
	}
	return s.finishPrediction(sz, req), nil
}

// resolveSize fills the size level of a frame, once, and returns the error
// it memoizes. Filling it is a cache miss; finding it filled, or waiting
// while another request fills it, a hit.
func (s *Service) resolveSize(sz *sizeFrame, req Request) error {
	hit := true
	sz.once.Do(func() {
		hit = false
		s.metrics.recordCacheMiss()
		sz.err = s.computeSize(sz, req)
	})
	if hit {
		s.metrics.recordCacheHit()
	}
	return sz.err
}

// computeSize works out what a request owes to its grid size and
// strategies alone: the partition (chosen from the tick's load reports, or
// pinned), the bandwidth forecast, and the model's value for one phase pair.
func (s *Service) computeSize(sz *sizeFrame, req Request) error {
	tick := s.resolveTick(sz.tick)
	var err error
	sz.partition = req.Partition
	if sz.partition == nil {
		if sz.partition, err = s.choosePartition(req, tick.loads); err != nil {
			return err
		}
	}
	sz.bandwidth = stochastic.Point(1)
	if s.netMon {
		// Production network: the NWS bandwidth monitor's forecast of
		// achieved bytes/s, expressed as a fraction of the dedicated link
		// rate. Same fallback chain as the CPU monitors; the prior claims
		// half the dedicated rate ± the full range.
		if sz.bandwidth, sz.bwGaps, err = s.bwReport(req.N); err != nil {
			return err
		}
	}
	defer s.metrics.startStage(stageModelEval).stop()
	if sz.eval, err = s.sorModel(req, sz.partition).PointEvaluator(); err != nil {
		return err
	}
	sz.phase, err = sz.eval.PhaseValue(tick.loads, sz.bandwidth)
	return err
}

// sorModel is the structural model of req's job on this platform under the
// given decomposition.
func (s *Service) sorModel(req Request, part *sor.Partition) *structural.SORConfig {
	return &structural.SORConfig{
		N:            req.N,
		Iterations:   req.Iterations,
		Partition:    part,
		Machines:     s.machines,
		MachineIdx:   sor.IdentityMapping(len(s.machines)),
		Link:         s.link,
		MaxStrategy:  req.MaxStrategy,
		IterationRel: req.IterationRel,
	}
}

// minAvailPoint floors the point availabilities the quantile transform
// evaluates the model at, matching the bandwidth-fraction floor: a widened
// tail quantile can cross zero, but the model needs a positive capacity.
const minAvailPoint = 0.01

// distSamples is how many joint load draws the distribution transform
// evaluates the structural model at. The draws resolve lazily — the first
// distribution-requesting prediction per (grid size, tick) pays for them,
// the tick cache shares them, and legacy requests never trigger them.
const distSamples = 64

// buildDistUniforms tabulates a fixed Latin-hypercube sample matrix:
// distSamples rows of dims uniforms, each column a stratified permutation
// of (i+0.5)/distSamples. The generator seed is a constant so every
// service — and every restore of a snapshot — evaluates the identical
// joint sample, keeping predictions reproducible.
func buildDistUniforms(dims int) [][]float64 {
	rng := rand.New(rand.NewSource(0x9e3779b9))
	u := make([][]float64, distSamples)
	for i := range u {
		u[i] = make([]float64, dims)
	}
	for d := 0; d < dims; d++ {
		for i, p := range rng.Perm(distSamples) {
			u[p][d] = (float64(i) + 0.5) / distSamples
		}
	}
	return u
}

// distDesign is the sample matrix of buildDistUniforms with everything that
// depends only on the uniforms worked out once: a draw reads a machine's
// load off its forecast's quantile grid at a located position, and the
// bandwidth fraction off its normal at a tabulated z-score.
type distDesign struct {
	machines int
	// cells[i*machines+m] is where draw i reads machine m's quantile grid.
	cells []dist.GridPos
	// bwZ[i] is the standard normal quantile of draw i's bandwidth uniform.
	bwZ []float64
}

// distDesigns holds the one read-only design of each machine count that
// every service of that count shares (int → *distDesign).
var distDesigns sync.Map

// sharedDistDesign returns the design of a machine count, built on first
// demand.
func sharedDistDesign(machines int) *distDesign {
	if d, ok := distDesigns.Load(machines); ok {
		return d.(*distDesign)
	}
	d, _ := distDesigns.LoadOrStore(machines, buildDistDesign(machines))
	return d.(*distDesign)
}

func buildDistDesign(machines int) *distDesign {
	u := buildDistUniforms(machines + 1)
	d := &distDesign{
		machines: machines,
		cells:    make([]dist.GridPos, 0, len(u)*machines),
		bwZ:      make([]float64, len(u)),
	}
	for i, row := range u {
		for _, p := range row[:machines] {
			d.cells = append(d.cells, dist.LocateLevel(p))
		}
		d.bwZ[i] = stats.NormalQuantile(row[machines])
	}
	return d
}

// loads fills out with draw i's availability of every machine: what
// dist.GridQuantile(dists[m].Quantiles, u[i][m]) returns, floored.
func (d *distDesign) loads(i int, dists []nws.LoadDist, out []float64) {
	for m, c := range d.cells[i*d.machines : (i+1)*d.machines] {
		out[m] = math.Max(c.Read(dists[m].Quantiles), minAvailPoint)
	}
}

// bandwidth returns draw i's bandwidth fraction: what
// bwFrac.Quantile(u[i][machines]) returns, floored.
func (d *distDesign) bandwidth(i int, bwFrac stochastic.Value) float64 {
	bw := bwFrac.Mean
	if !bwFrac.IsPoint() {
		bw = bwFrac.Mean + bwFrac.Sigma()*d.bwZ[i]
	}
	return math.Max(bw, minAvailPoint)
}

// phaseDraws resolves a size frame's sorted phase draws on first demand.
// Safe for concurrent callers: the pass runs at most once per frame even
// under a request storm. Callers hold the service's clock read lock.
func (s *Service) phaseDraws(sz *sizeFrame) []float64 {
	sz.drawsOnce.Do(func() {
		defer s.metrics.startStage(stageDistGrid).stop()
		sz.draws = s.drawPhases(sz.eval, sz.tick.dists, sz.bandwidth)
	})
	return sz.draws
}

// drawPhases is the sampling half of the distribution transform, an
// independence Monte Carlo transform of the per-machine load
// distributions: each Latin-hypercube row draws every machine's
// availability (and the bandwidth fraction) independently from its own
// forecast distribution by inverse CDF, and the structural model maps the
// joint draw to the time of one phase pair. Unlike a comonotone transform —
// which pins all machines to the same bad quantile at once and so prices an
// everyone-bursts-together event at the probability of one machine
// bursting — the joint sampling keeps the tail of the execution-time
// distribution proportional to how likely slow draws actually coincide.
// The draws come back sorted; a model that rejects any draw returns nil.
//
// Every draw is a point value, so the model is evaluated by its point
// evaluator (structural.SORPoint), which returns the expression tree's
// mean without building or walking the tree.
func (s *Service) drawPhases(eval *structural.SORPoint, dists []nws.LoadDist, bwFrac stochastic.Value) []float64 {
	phases := make([]float64, distSamples)
	loads := make([]float64, len(dists))
	bw := 1.0
	var err error
	for i := range phases {
		if s.netMon {
			bw = s.design.bandwidth(i, bwFrac)
		}
		s.design.loads(i, dists, loads)
		if phases[i], err = eval.Phase(loads, bw); err != nil {
			return nil
		}
	}
	sort.Float64s(phases)
	return phases
}

// distGrid is the reading half of the distribution transform: the raw
// execution-time quantile grid of a run of k phase pairs, the empirical
// dist.GridLevels quantiles of k times each sorted phase draw. Multiplying by a
// positive k and rounding are both monotone, so the scaled draws are the
// sorted execution times of that run — what sorting the run's own times over
// the same draws gives, NaNs first either way — and one pass of draws serves
// every iteration count. Without draws the grid degrades to the raw value's
// normal quantiles.
func distGrid(draws []float64, k float64, raw stochastic.Value) []float64 {
	if draws == nil {
		return dist.NormalGrid(raw.Mean, raw.Sigma())
	}
	var times [distSamples]float64
	for i, d := range draws {
		times[i] = k * d
	}
	grid := make([]float64, dist.NumLevels)
	for i, p := range dist.GridLevels {
		grid[i] = stats.QuantileSorted(times[:], p)
	}
	dist.Monotone(grid)
	return grid
}

// dominantForecaster returns the most common per-machine forecaster tag,
// breaking ties toward the lowest machine index.
func dominantForecaster(dists []nws.LoadDist) string {
	best, bestCount := "", 0
	for i, d := range dists {
		count := 1
		for _, e := range dists[i+1:] {
			if e.Forecaster == d.Forecaster {
				count++
			}
		}
		if count > bestCount {
			best, bestCount = d.Forecaster, count
		}
	}
	return best
}

// finishPrediction works out the request's own share over a resolved
// (possibly shared) size frame: the iteration count's scaling of the size's
// per-phase-pair value, the calibrator's current multiplier, the per-level
// quantile calibration of the distribution grid (and any requested
// intervals), and a fresh ledger ID. It runs identically over cached and
// uncached frames.
//
// The distribution grid resolves lazily here: only requests that ask
// (Distribution set, or any interval levels) trigger the Monte Carlo
// transform, whose draws the size frame memoizes for the rest of the tick;
// each such request reads its own grid off them. Outcomes of predictions
// that never asked carry no grid, so quantile calibration learns
// exclusively from distribution-valued traffic.
func (s *Service) finishPrediction(sz *sizeFrame, req Request) Prediction {
	k := structural.PhasePairs(req.Iterations)
	raw := structural.Repeat{K: k, Rel: req.IterationRel}.Of(sz.phase)
	levels := req.Levels
	var distRaw []float64
	if req.Distribution || len(levels) > 0 {
		distRaw = distGrid(s.phaseDraws(sz), k, raw)
	}
	// One hold of the tracker for both overlays: an Observe landing between
	// two would give the value and the grid different calibration states.
	cal, calQ := s.tracker.Overlay(raw, distRaw)
	scale := 1.0
	if raw.Spread > 0 {
		scale = cal.Spread / raw.Spread
	}
	var pd PredictionDist
	if len(distRaw) == dist.NumLevels {
		pd = PredictionDist{
			Levels:     dist.GridLevels,
			Raw:        distRaw,
			Calibrated: calQ,
			Forecaster: sz.tick.tag,
		}
		if len(levels) > 0 {
			pd.Intervals = make([]Interval, len(levels))
			for i, l := range levels {
				pd.Intervals[i] = Interval{
					Level: l,
					Lo:    dist.GridQuantile(calQ, (1-l)/2),
					Hi:    dist.GridQuantile(calQ, (1+l)/2),
				}
			}
		}
	}
	if len(levels) > 0 {
		s.metrics.recordQuantileRequest()
	}
	var rawQ *rawGrid
	if distRaw != nil {
		rawQ = (*rawGrid)(distRaw)
	}
	s.ledgerMu.Lock()
	id := s.ledger.issue(raw, cal.Spread, rawQ)
	s.ledgerMu.Unlock()
	return Prediction{
		ID:               id,
		Value:            cal,
		Raw:              raw,
		CalibrationScale: scale,
		Partition:        sz.partition,
		Time:             s.now,
		Loads:            sz.tick.reports,
		Bandwidth:        sz.bandwidth,
		BWGaps:           sz.bwGaps,
		Dist:             pd,
	}
}

// Observe closes the loop for one prediction: the measured runtime (in
// virtual seconds, like the prediction it answers) is fed to the
// platform's accuracy tracker, which updates capture statistics,
// adapts the interval multiplier, and checks for regime drift. The
// prediction ID must have been issued by this service and not yet observed.
// drifted reports whether this outcome fired a regime reset; the state it
// left is Accuracy's to read.
func (s *Service) Observe(id uint64, actual float64) (drifted bool, err error) {
	if !(actual > 0) || math.IsInf(actual, 1) {
		return false, fmt.Errorf("predict: actual runtime %g is not a positive finite number", actual)
	}
	s.clockMu.RLock()
	defer s.clockMu.RUnlock()
	s.ledgerMu.Lock()
	e, ok := s.ledger.take(id)
	s.ledgerMu.Unlock()
	if !ok {
		return false, fmt.Errorf("predict: prediction id %d was never issued by platform %q (or was already observed)", id, s.name)
	}
	_, drifted = s.tracker.Observe(e.outcome(s.now, actual))
	return drifted, nil
}

// Discard forgets an issued prediction that will never be observed — a
// candidate a scheduler scored and did not choose — so it neither counts
// against the ledger's bound nor pins its quantile grid until evicted. An
// unknown (or already observed) ID is a no-op, and IDs issued later do not
// move.
func (s *Service) Discard(id uint64) {
	s.ledgerMu.Lock()
	s.ledger.take(id)
	s.ledgerMu.Unlock()
}

// Accuracy returns the platform's online accuracy and calibration state.
// Safe for concurrent use (the tracker carries its own lock).
func (s *Service) Accuracy() calib.Snapshot {
	return s.tracker.Snapshot()
}

// DriftCount returns how many regime changes the platform's calibrator has
// detected: len(Accuracy().Drifts), without copying the accuracy state.
func (s *Service) DriftCount() int { return s.tracker.DriftCount() }

// Outstanding reports how many issued predictions await an Observe call.
func (s *Service) Outstanding() int {
	s.ledgerMu.Lock()
	defer s.ledgerMu.Unlock()
	return s.ledger.live
}

// issued reports how many predictions the service has issued, a restored
// image's included: the ledger's last ID.
func (s *Service) issued() int64 {
	s.ledgerMu.Lock()
	defer s.ledgerMu.Unlock()
	return int64(s.ledger.next)
}

// Readout is one platform's monitors at one virtual time: GET /report's and
// GET /healthz's view.
type Readout struct {
	// Time is the virtual clock the rest was read at.
	Time float64
	// Reports are the per-machine load reports (robust fallback chain) of
	// the tick at Time — the slice every Prediction.Loads of that tick
	// shares (callers must not mutate it).
	Reports []MachineReport
	// BWGaps is the bandwidth monitors' gap counters at Time, summed
	// across probe sizes (LongestGap is the max); zero when the network is
	// contention-free or no prediction has consulted bandwidth yet.
	BWGaps nws.GapStats
}

// Readout reads the clock, the tick's reports and the bandwidth gap
// counters under one hold of the clock lock, without evaluating a model, so
// an Advance cannot land between them: the reports are always the ones a
// prediction stamped with the same Time carries.
func (s *Service) Readout() Readout {
	s.clockMu.RLock()
	defer s.clockMu.RUnlock()
	r := Readout{Time: s.now, Reports: s.resolveTick(s.frame()).reports}
	// Resolving the tick caught every monitor up to the clock.
	s.monMu.Lock()
	r.BWGaps = s.bwGapsLocked()
	s.monMu.Unlock()
	return r
}

// bwGapsLocked sums the bandwidth monitors' gap counters across probe sizes
// (LongestGap is the max): zero when the network is contention-free or no
// prediction has consulted bandwidth yet. The caller holds the clock lock
// and monMu.
func (s *Service) bwGapsLocked() nws.GapStats {
	var total nws.GapStats
	for _, b := range s.bw {
		g := b.mon.Gaps()
		total.Clean += g.Clean
		total.Recovered += g.Recovered
		total.Retries += g.Retries
		total.Dropped += g.Dropped
		total.Outage += g.Outage
		total.TransientLost += g.TransientLost
		total.SensorErrors += g.SensorErrors
		total.Missed += g.Missed
		if g.LongestGap > total.LongestGap {
			total.LongestGap = g.LongestGap
		}
	}
	return total
}
