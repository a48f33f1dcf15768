package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// stack is one serving stack a script can be run against: the real daemon
// (daemonStack) or an in-process twin at some depth (adapter.go).
type stack interface {
	// executor returns connection c's executor; connection 0 also makes
	// the fleet-wide calls at barriers.
	executor(c int) executor
	// cpuSeconds is the serving side's CPU time so far (0 in-process,
	// where it cannot be told apart from the generator's).
	cpuSeconds() float64
	// restart snapshots the fleet, stops the stack and restores it from
	// the image; the executors keep working afterwards.
	restart() (restartStats, error)
}

type restartStats struct {
	snapshotMS float64 // POST /snapshot including the body
	restoreS   float64 // spawn -restore -> first 200
	snapshotMB float64
}

// truthFn charges one SOR job against a tenant's never-served twin
// environment and returns its ground-truth runtime in virtual seconds.
type truthFn func(tenant int, sh shape, rows []int, start float64) (float64, error)

// phaseStats is what one measured phase (or one connection's part of it)
// observed. Latencies are in ms, timed from each call's arrival (see do).
type phaseStats struct {
	wall      float64 // s
	serverCPU float64 // s of daemon user+sys CPU
	clientCPU float64 // s of generator user+sys CPU
	lat       [numOpKinds][]float64
	latEpoch  [numOpKinds][]int // for each latency, the phase's epoch its call belonged to
	marks     []mark            // one per barrier, the phase's end included
	late      []float64         // ms a call was sent after it was due (open loop)
	calls     [numOpKinds]int
	attempted int
	failed    int
	preds     int // predictions answered, batch items counted singly
	levelReqs int // predictions that asked levels
	ticks     int // single-tenant advances issued
	fleetAdv  int // fleet-wide advances issued
	jobs      int // jobs submitted to /schedule
	placed    int
	observed  int
	captured  int       // actuals inside the served 95% interval
	relWidth  []float64 // interval width / actual
	epochs    int
	ops       []opSpan  // in call order, when recording
	outcomes  []outcome // every accepted observe, when recording
	failures  []string  // first few, for the post-mortem
}

// mark is the state at one barrier. Two consecutive marks bound one epoch:
// a fixed list of calls, so epochs are equal-work slices of a phase. With
// everything parked at the barrier the reference kernel is sampled
// (speed.go); the next epoch begins at resume.
type mark struct {
	at       float64 // s since the phase began when the epoch before the barrier ended
	resume   float64 // s since the phase began when the epoch after it started
	cpu      float64 // serving-side CPU seconds so far
	preds    int     // predictions answered so far in the phase
	kernelMS float64 // the reference kernel's time at this barrier; 0 when not sampled
}

// outcome is one closed loop: what was predicted and what the job took.
type outcome struct {
	tenant                          int
	mean, spread, rawSpread, actual float64
	rawQ                            []float64 // uncalibrated grid, when levels were asked
}

// opSpan is one call's wall-clock extent, relative to the run's origin.
type opSpan struct {
	kind       opKind
	items      int // batch size (1 otherwise)
	start, end time.Duration
}

func (s *phaseStats) merge(o *phaseStats) {
	for k := range s.lat {
		s.lat[k] = append(s.lat[k], o.lat[k]...)
		s.latEpoch[k] = append(s.latEpoch[k], o.latEpoch[k]...)
		s.calls[k] += o.calls[k]
	}
	s.late = append(s.late, o.late...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.preds += o.preds
	s.levelReqs += o.levelReqs
	s.ticks += o.ticks
	s.fleetAdv += o.fleetAdv
	s.jobs += o.jobs
	s.placed += o.placed
	s.observed += o.observed
	s.captured += o.captured
	s.relWidth = append(s.relWidth, o.relWidth...)
	s.ops = append(s.ops, o.ops...)
	s.outcomes = append(s.outcomes, o.outcomes...)
	for _, f := range o.failures {
		s.fail(f)
	}
}

func (s *phaseStats) fail(msg string) {
	if len(s.failures) < 8 {
		s.failures = append(s.failures, msg)
	}
}

// served is a prediction and the shape it was asked for.
type served struct {
	prediction
	shape shape
}

// connState is one connection's side of a script run.
type connState struct {
	c      int
	gen    *connGen
	exec   executor
	lastID map[int]uint64 // per owned tenant: IDs must strictly increase
	latest map[int]served // per owned tenant: the prediction an observe feeds back
	st     *phaseStats
	epoch  int       // the current epoch's index within the phase
	due    time.Time // open loop: when the next call is due
	// scored is set while the connection is inside the run's first
	// qualityEpochs epochs: only their observes count towards capture95 and
	// relwidth95.
	scored bool
}

// qualityEpochs is how many epochs after priming feed the quality figures.
// Phases are sized by time, so how far a run gets into its script depends on
// the machine; a fixed prefix is a fixed list of calls, and the figures over
// it are a pure function of (workload, seed). Epochs are never cut short,
// and a phase on the reference box runs five or more, so every sub-run
// completes its three.
const qualityEpochs = 3

// scriptRun drives one workload script against one stack.
type scriptRun struct {
	w      *workload
	stk    stack
	truth  truthFn
	conns  [conns]*connState
	epoch  int // epochs completed over all phases
	origin time.Time
	// rate is the open-loop arrival rate of the next phase in calls/s over
	// both connections; 0, the default, is a closed loop.
	rate float64
	// speed, when set, is sampled at every barrier of a closed-loop phase
	// (an arrival schedule does not stop for it).
	speed *speedProbe
	// sequential runs both connections' rounds on the calling goroutine,
	// round-robin — the traced depths, where op k must be the same work at
	// every depth.
	sequential bool
	recordOps  bool
	abort      atomic.Bool
	errMu      sync.Mutex
	err        error // first transport failure
}

func newScriptRun(w *workload, seed int64, stk stack, truth truthFn) *scriptRun {
	r := &scriptRun{w: w, stk: stk, truth: truth, origin: time.Now()}
	for c := range r.conns {
		r.conns[c] = &connState{
			c: c, gen: newConnGen(w, seed, c), exec: stk.executor(c),
			lastID: map[int]uint64{}, latest: map[int]served{},
		}
	}
	return r
}

func (r *scriptRun) fatal(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.abort.Store(true)
}

// prime runs the untimed priming pass on both connections.
func (r *scriptRun) prime() (*phaseStats, error) {
	total := &phaseStats{}
	run := func(cs *connState) {
		cs.st = &phaseStats{}
		for _, o := range primingOps(cs.gen) {
			if r.abort.Load() {
				return
			}
			r.do(cs, o, false)
		}
	}
	r.eachConn(run)
	for _, cs := range r.conns {
		total.merge(cs.st)
	}
	return total, r.err
}

func (r *scriptRun) eachConn(f func(*connState)) {
	if r.sequential {
		for _, cs := range r.conns {
			f(cs)
		}
		return
	}
	var wg sync.WaitGroup
	for _, cs := range r.conns {
		wg.Add(1)
		go func(cs *connState) {
			defer wg.Done()
			f(cs)
		}(cs)
	}
	wg.Wait()
}

// phase runs one measured phase: whole epochs until the deadline has passed
// when seconds > 0, else exactly `epochs` epochs (the deterministic mode
// whose digest and counts repeat exactly). It ends at a barrier either way,
// so every epoch it ran is a complete, equal piece of work.
func (r *scriptRun) phase(seconds float64, epochs int) (*phaseStats, error) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	firstEpoch := r.epoch
	done := func(epoch int) bool {
		if r.abort.Load() {
			return true
		}
		if seconds > 0 {
			return !time.Now().Before(deadline)
		}
		return epoch-firstEpoch >= epochs
	}
	cpu0, client0 := r.stk.cpuSeconds(), selfCPUSeconds()
	for _, cs := range r.conns {
		cs.st = &phaseStats{}
		cs.due = start
	}
	var marks []mark
	lead := func(epoch int) bool {
		// Every connection is parked at the barrier: their counters are
		// still, and this is where one epoch ends and the next begins.
		m := mark{at: time.Since(start).Seconds(), cpu: r.stk.cpuSeconds()}
		for _, cs := range r.conns {
			m.preds += cs.st.preds
		}
		if r.speed != nil && r.rate == 0 {
			m.kernelMS = r.speed.sample()
		}
		m.resume = time.Since(start).Seconds()
		marks = append(marks, m)
		if done(epoch) {
			return true
		}
		if r.w.leader != nil {
			r.conns[0].epoch = epoch - firstEpoch
			for _, o := range r.w.leader(epoch) {
				r.do(r.conns[0], o, false)
			}
		}
		return r.abort.Load()
	}
	rounds := func(cs *connState, epoch int) {
		cs.scored, cs.epoch = epoch < qualityEpochs, epoch-firstEpoch
		for k := 0; k < r.w.epochRounds; k++ {
			for _, o := range r.w.round(cs.gen) {
				if r.abort.Load() {
					return
				}
				r.do(cs, o, r.rate > 0)
			}
		}
	}
	epochsRun := 0
	if r.sequential {
		for epoch := firstEpoch; !lead(epoch); epoch++ {
			// Round-robin keeps the global call order a pure function of
			// the script.
			for _, cs := range r.conns {
				cs.scored, cs.epoch = epoch < qualityEpochs, epoch-firstEpoch
			}
			for k := 0; k < r.w.epochRounds && !r.abort.Load(); k++ {
				for _, cs := range r.conns {
					for _, o := range r.w.round(cs.gen) {
						r.do(cs, o, false)
					}
				}
			}
			epochsRun++
		}
	} else {
		bar := newBarrier(conns)
		var wg sync.WaitGroup
		for _, cs := range r.conns {
			wg.Add(1)
			go func(cs *connState) {
				defer wg.Done()
				for epoch := firstEpoch; ; epoch++ {
					if bar.await(cs.c, func() bool { return lead(epoch) }) {
						return
					}
					rounds(cs, epoch)
					if cs.c == 0 {
						epochsRun++
					}
				}
			}(cs)
		}
		wg.Wait()
	}
	r.epoch = firstEpoch + epochsRun
	total := &phaseStats{
		wall:      time.Since(start).Seconds(),
		serverCPU: r.stk.cpuSeconds() - cpu0,
		clientCPU: selfCPUSeconds() - client0,
		epochs:    epochsRun,
		marks:     marks,
	}
	for _, cs := range r.conns {
		total.merge(cs.st)
	}
	// Call order over both connections, which is what a server-side record
	// of the same calls is in.
	sort.Slice(total.ops, func(i, j int) bool { return total.ops[i].start < total.ops[j].start })
	return total, r.err
}

// do issues one call, times it, validates the response and feeds the
// per-tenant state the later calls depend on.
func (r *scriptRun) do(cs *connState, o op, paced bool) {
	st := cs.st
	name := ""
	if o.tenant >= 0 {
		name = tenantName(o.tenant)
	}
	// Ground truth is computed before the clock starts: it is generator
	// work, not service time.
	var actual float64
	var fed served
	if o.kind == opObserve {
		var ok bool
		if fed, ok = cs.latest[o.tenant]; !ok {
			st.attempted++
			st.failed++
			st.fail(fmt.Sprintf("observe %s: script observed a tenant with no pending prediction", name))
			return
		}
		var err error
		if actual, err = r.truth(o.tenant, fed.shape, fed.PartitionRows, fed.Time); err != nil {
			r.fatal(fmt.Errorf("ground truth for %s: %w", name, err))
			return
		}
	}
	begin := time.Now()
	arrival := begin
	if paced {
		// Open loop: the call is due on a fixed schedule whatever the
		// daemon does. If the connection is still busy when it falls due,
		// the call arrived at its due time and the wait is part of its
		// latency — a stall is charged to every call it delays. If the
		// connection is idle, the call arrives when the generator's timer
		// fires; that overshoot (about 1 ms: the Go runtime parks in
		// epoll_wait, which counts in milliseconds) is the generator's and
		// is reported as lateness, not as daemon latency.
		due := cs.due
		cs.due = cs.due.Add(time.Duration(float64(time.Second) * conns / r.rate))
		arrival = due
		if wait := due.Sub(begin); wait > 0 {
			time.Sleep(wait)
			begin = time.Now()
			arrival = begin
		}
		st.late = append(st.late, ms(begin.Sub(due)))
	}
	var status int
	var err error
	items := 1
	invalid := ""
	switch o.kind {
	case opPredict:
		var p prediction
		p, status, err = cs.exec.predict(name, shapes[o.shape], o.levels)
		if err == nil && status == http.StatusOK {
			invalid = cs.accept(o.tenant, o.shape, o.levels, &p)
			st.preds++
			if o.levels {
				st.levelReqs++
			}
		}
	case opBatch:
		var ps []prediction
		ps, status, err = cs.exec.batch(o.items)
		items = len(o.items)
		if err == nil && status == http.StatusOK {
			if len(ps) != len(o.items) {
				invalid = fmt.Sprintf("batch answered %d of %d items", len(ps), len(o.items))
			}
			for i := range ps {
				if i >= len(o.items) {
					break
				}
				it := o.items[i]
				if ps[i].Error != "" {
					invalid = "batch item error: " + ps[i].Error
					continue
				}
				if msg := cs.accept(it.tenant, it.shape, it.levels, &ps[i]); msg != "" {
					invalid = msg
				}
				st.preds++
				if it.levels {
					st.levelReqs++
				}
			}
		}
	case opObserve:
		status, err = cs.exec.observe(name, fed.ID, actual)
		delete(cs.latest, o.tenant)
	case opAccuracy:
		status, err = cs.exec.accuracy(name)
	case opAdvance:
		status, err = cs.exec.advance(name)
		if o.tenant >= 0 {
			st.ticks++
		} else {
			st.fleetAdv++
		}
	case opSchedule:
		var sr scheduleResponse
		sr, status, err = cs.exec.schedule(o.jobs)
		if err == nil && status == http.StatusOK {
			if len(sr.Placements)+sr.Unplaced != len(o.jobs) {
				invalid = fmt.Sprintf("schedule: %d placements + %d unplaced != %d jobs", len(sr.Placements), sr.Unplaced, len(o.jobs))
			}
			st.jobs += len(o.jobs)
			st.placed += len(sr.Placements)
		}
	}
	end := time.Now()
	if err != nil {
		r.fatal(fmt.Errorf("%s %s: %w", opNames[o.kind], name, err))
		return
	}
	st.attempted++
	st.calls[o.kind]++
	st.lat[o.kind] = append(st.lat[o.kind], ms(end.Sub(arrival)))
	st.latEpoch[o.kind] = append(st.latEpoch[o.kind], cs.epoch)
	if r.recordOps {
		st.ops = append(st.ops, opSpan{kind: o.kind, items: items, start: begin.Sub(r.origin), end: end.Sub(r.origin)})
	}
	if status != http.StatusOK && invalid == "" {
		invalid = fmt.Sprintf("status %d", status)
		if x, ok := cs.exec.(*httpExec); ok {
			reason := strings.TrimSpace(x.resp.String()) // the daemon's own
			invalid += ": " + reason[:min(len(reason), 200)]
		}
	}
	if invalid != "" {
		st.failed++
		st.fail(fmt.Sprintf("%s %s: %s", opNames[o.kind], name, invalid))
		return
	}
	if o.kind == opObserve {
		if cs.scored {
			lo, hi := fed.Lo, fed.Hi
			if iv, ok := interval95(&fed.prediction); ok {
				lo, hi = iv.Lo, iv.Hi
			}
			st.observed++
			if actual >= lo && actual <= hi {
				st.captured++
			}
			st.relWidth = append(st.relWidth, (hi-lo)/actual)
		}
		if r.recordOps {
			oc := outcome{tenant: o.tenant, mean: fed.Mean, spread: fed.Spread, rawSpread: fed.RawSpread, actual: actual}
			if fed.Dist != nil {
				oc.rawQ = fed.Dist.Raw
			}
			st.outcomes = append(st.outcomes, oc)
		}
	}
}

// interval95 returns the served 0.95 central interval when levels were asked.
func interval95(p *prediction) (interval, bool) {
	if p.Dist == nil {
		return interval{}, false
	}
	for _, iv := range p.Dist.Intervals {
		if iv.Level == 0.95 {
			return iv, true
		}
	}
	return interval{}, false
}

// accept validates one served prediction and records it as the tenant's
// latest. It returns "" or what was wrong.
func (cs *connState) accept(tenant, shapeIdx int, levels bool, p *prediction) string {
	if want := tenantName(tenant); p.Platform != want {
		return fmt.Sprintf("answered for platform %q, asked %q", p.Platform, want)
	}
	if !(p.Lo <= p.Mean && p.Mean <= p.Hi) {
		return fmt.Sprintf("lo <= mean <= hi violated: %g %g %g", p.Lo, p.Mean, p.Hi)
	}
	if !(p.Mean > 0) {
		return fmt.Sprintf("non-positive predicted runtime %g", p.Mean)
	}
	if last := cs.lastID[tenant]; p.ID <= last {
		return fmt.Sprintf("prediction id %d not above the tenant's previous %d", p.ID, last)
	}
	if len(p.PartitionRows) == 0 {
		return "no partition_rows"
	}
	if levels {
		if p.Dist == nil || len(p.Dist.Calibrated) == 0 || len(p.Dist.Calibrated) != len(p.Dist.Levels) {
			return "levels asked, no calibrated grid served"
		}
		for i := 1; i < len(p.Dist.Calibrated); i++ {
			if p.Dist.Calibrated[i] < p.Dist.Calibrated[i-1] {
				return fmt.Sprintf("calibrated grid not monotone at level %g", p.Dist.Levels[i])
			}
		}
		if len(p.Dist.Intervals) != len(askLevels) {
			return fmt.Sprintf("asked %d intervals, served %d", len(askLevels), len(p.Dist.Intervals))
		}
		for i, iv := range p.Dist.Intervals {
			if iv.Level != askLevels[i] || iv.Lo > iv.Hi {
				return fmt.Sprintf("interval %d malformed: level %g [%g, %g]", i, iv.Level, iv.Lo, iv.Hi)
			}
			// askLevels ascend, so each interval must contain the one before.
			if i > 0 && (iv.Lo > p.Dist.Intervals[i-1].Lo || iv.Hi < p.Dist.Intervals[i-1].Hi) {
				return fmt.Sprintf("interval at %g does not contain the one at %g", iv.Level, p.Dist.Intervals[i-1].Level)
			}
		}
	}
	cs.lastID[tenant] = p.ID
	cs.latest[tenant] = served{*p, shapes[shapeIdx]}
	return ""
}

// digest folds the connections' response digests, in connection order.
func (r *scriptRun) digest() string {
	h := sha256.New()
	for _, cs := range r.conns {
		if x, ok := cs.exec.(*httpExec); ok {
			h.Write(x.digest.Sum(nil))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfCPUSeconds is the generator's own user+system CPU so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // only feeds the advisory client.cpu_share
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// barrier lines the connections up between epochs: everyone arrives,
// connection 0 alone runs lead (the fleet-wide calls, with the others
// idle), and its verdict — stop or go on — is handed to all.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     int
	stop    bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await(c int, lead func() bool) bool {
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	b.cond.Broadcast()
	if c == 0 {
		for b.waiting < b.n {
			b.cond.Wait()
		}
		b.mu.Unlock()
		stop := lead()
		b.mu.Lock()
		b.stop, b.waiting = stop, 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return stop
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	stop := b.stop
	b.mu.Unlock()
	return stop
}
