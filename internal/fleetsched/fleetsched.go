// Package fleetsched closes the paper's outer loop at cluster scale: it
// places SOR-style jobs across a multi-tenant fleet (a predict.Registry)
// using the predicted execution-time *distributions*, not just their means.
//
// Placement walks every registered tenant in sorted-name order, asks each
// tenant's service for a prediction of the job at the current virtual
// tick, scores it under the round's policy — the predicted mean
// (PolicyMean), the calibrated interval's upper bound (PolicyUpper), or a
// calibrated quantile of the full predictive distribution (PolicyQuantile,
// the distribution-aware default) — adds the tenant's planned backlog, and
// commits the job to the cheapest tenant. The paper's argument that
// stochastic predictions exist to drive decisions (§scheduling) is this
// seam: two fleets with identical point predictions place differently once
// the distributions disagree.
//
// The loop is closed: Sync executes due jobs against each tenant's
// simulated environment (the same availability trajectories the monitors
// sample), feeds the measured runtimes back through Observe, and reads the
// resulting calib.Snapshot for saturation signals. A tenant saturates when
// its calibrator detects a load-regime drift event or its latest
// prediction's relative interval width crosses Config.SatRelWidth;
// saturated tenants are skipped by placement for 240 virtual seconds, and
// their still-queued jobs are migrated to the cheapest non-saturated tenant.
//
// Units: every time in this package's API — job deadlines, placement
// times, start/finish stamps — is in virtual seconds on the tenants'
// simulated clocks; the scheduler assumes the fleet's clocks are
// advanced in lockstep (the daemon's tick loop and the experiments both
// do). Wall-clock time appears only in the schedule-latency telemetry and
// never feeds back into decisions.
//
// Determinism: with metrics detached from control flow, every placement,
// migration, and completion is a pure function of (tenant seeds, clock
// schedule, submission order). Two schedulers driven identically produce
// identical Status snapshots.
//
// Thread-safety: Scheduler is safe for concurrent use; one mutex
// serializes placement rounds, Sync, and Status. Plain data types
// (JobSpec, Placement, Status) are values the caller owns once returned.
package fleetsched

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"prodpred/internal/obs"
	"prodpred/internal/predict"
	"prodpred/internal/sched"
	"prodpred/internal/sor"
)

// Policy selects how placement scores a candidate tenant's predicted
// execution time.
type Policy string

const (
	// PolicyMean scores by the predicted mean — the distribution-blind
	// baseline.
	PolicyMean Policy = "mean"
	// PolicyQuantile scores by the round's quantile of the calibrated
	// predictive distribution (falling back to the normal-interpretation
	// quantile of the two-number prediction when no grid is available).
	PolicyQuantile Policy = "quantile"
	// PolicyUpper scores by the calibrated interval's upper bound,
	// sched.UpperBoundObjective.
	PolicyUpper Policy = "upper"
)

// ParsePolicy maps a flag/wire string onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyMean, PolicyQuantile, PolicyUpper:
		return Policy(s), nil
	default:
		return "", fmt.Errorf("fleetsched: unknown policy %q (want mean, quantile, or upper)", s)
	}
}

// DefaultQuantile is the placement quantile Submit places at.
const DefaultQuantile = 0.95

// DefaultSatRelWidth is the saturation threshold on a tenant's latest
// relative interval width (full 95% width / median) when Config.SatRelWidth
// is zero.
const DefaultSatRelWidth = 1.5

// satHold is how long a saturated tenant stays excluded from placement, in
// virtual seconds. Drift events and width re-crossings extend the hold.
const satHold = 240

// Config tunes a Scheduler. The zero value gives the default saturation
// threshold and no telemetry.
type Config struct {
	// SatRelWidth is the relative-interval-width saturation threshold
	// (DefaultSatRelWidth when 0): a tenant whose latest prediction's
	// 95% width divided by its median exceeds it is marked saturated.
	SatRelWidth float64
	// Metrics, when non-nil, receives the fleetsched_* families, which read
	// the scheduler when scraped. Telemetry never feeds back into placement:
	// same inputs give the same schedule with metrics on or off.
	Metrics *obs.Registry
}

// MaxJobWork bounds the element updates (N²·Iterations) one submitted job
// may stand for. A prediction costs the same whatever the shape, but a
// placed job is executed against the simulator segment by segment of its
// machines' load, which takes time in proportion to the job's length: 2^40
// updates are weeks of virtual time on the catalog machines and tens of
// milliseconds to simulate, and a body of a few bytes must not be able to
// ask for minutes.
const MaxJobWork = 1 << 40

// JobSpec describes one SOR job to place: the problem shape plus an
// optional completion deadline in absolute virtual seconds (0 = none).
type JobSpec struct {
	// Name optionally labels the job in Status listings.
	Name string `json:"name,omitempty"`
	// N is the grid size (N x N); Iterations the SOR iteration count.
	N          int `json:"n"`
	Iterations int `json:"iterations"`
	// Deadline is the absolute virtual-seconds completion deadline on the
	// fleet's shared timeline; 0 means the job has none.
	Deadline float64 `json:"deadline,omitempty"`
}

// Placement reports where one submitted job landed.
type Placement struct {
	// JobID identifies the job in later Status listings.
	JobID uint64 `json:"job_id"`
	// Name echoes JobSpec.Name.
	Name string `json:"name,omitempty"`
	// Tenant is the platform the job was committed to.
	Tenant string `json:"tenant"`
	// Policy and Quantile record the objective the decision used.
	Policy   Policy  `json:"policy"`
	Quantile float64 `json:"quantile"`
	// Score is the winning objective value: planned tenant backlog plus
	// the policy's execution-time score, in virtual seconds.
	Score float64 `json:"score"`
	// PredictedMean and PredictedExec are the winner's predicted mean and
	// policy-scored execution time, in virtual seconds.
	PredictedMean float64 `json:"predicted_mean"`
	PredictedExec float64 `json:"predicted_exec"`
	// PredictionID is the winning tenant's ledger ID for the placement
	// prediction (the one Observe closes when the job completes).
	PredictionID uint64 `json:"prediction_id"`
	// Time is the tenant's virtual clock at placement.
	Time float64 `json:"time"`
	// Deadline echoes JobSpec.Deadline.
	Deadline float64 `json:"deadline,omitempty"`
	// Skips counts tenants that could not be scored for this job (lookup
	// or prediction failure) and were skipped instead of failing the
	// round.
	Skips int `json:"skips,omitempty"`
}

// Job states reported by Status.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateCompleted = "completed"
)

// JobStatus is one job's public state.
type JobStatus struct {
	ID         uint64 `json:"id"`
	Name       string `json:"name,omitempty"`
	Tenant     string `json:"tenant"`
	State      string `json:"state"`
	N          int    `json:"n"`
	Iterations int    `json:"iterations"`
	// PlacedAt, Start, and Finish are virtual seconds (Start/Finish zero
	// until the job starts).
	PlacedAt float64 `json:"placed_at"`
	Start    float64 `json:"start,omitempty"`
	Finish   float64 `json:"finish,omitempty"`
	Deadline float64 `json:"deadline,omitempty"`
	// PredictedExec is the policy-scored execution time the placement
	// committed to, in virtual seconds.
	PredictedExec float64 `json:"predicted_exec"`
	// Migrations counts how many times rebalancing moved this job.
	Migrations int `json:"migrations,omitempty"`
	// Missed is set on completed jobs that finished after their deadline.
	Missed bool `json:"missed,omitempty"`
}

// TenantStatus is one tenant's scheduler-side state.
type TenantStatus struct {
	Name string `json:"name"`
	// Time is the tenant's virtual clock, in virtual seconds.
	Time float64 `json:"time"`
	// Queued counts jobs waiting (not yet started); Running reports an
	// in-flight job.
	Queued  int  `json:"queued"`
	Running bool `json:"running"`
	// Saturated reports the tenant is excluded from placement until
	// SatUntil (virtual seconds).
	Saturated bool    `json:"saturated"`
	SatUntil  float64 `json:"sat_until,omitempty"`
	// RelWidth is the latest prediction's relative interval width.
	RelWidth float64 `json:"rel_width"`
	// DriftEvents counts calibrator drift events seen so far; Skips counts
	// placement rounds that skipped this tenant on lookup/predict errors.
	DriftEvents int    `json:"drift_events"`
	Skips       uint64 `json:"skips,omitempty"`
	// Completed counts jobs this tenant finished.
	Completed uint64 `json:"completed"`
}

// Status is a consistent snapshot of the scheduler.
type Status struct {
	// Job population counters.
	Submitted int `json:"submitted"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Completed int `json:"completed"`
	// Misses counts completed jobs that blew their deadline; Migrations
	// counts rebalancing moves; Unplaced counts jobs no tenant could
	// score.
	Misses     int `json:"misses"`
	Migrations int `json:"migrations"`
	Unplaced   int `json:"unplaced"`
	// Makespan is the span from the earliest placement to the latest
	// completion, in virtual seconds (0 until a job completes).
	Makespan float64 `json:"makespan"`
	// SaturatedTenants counts currently saturated tenants.
	SaturatedTenants int `json:"saturated_tenants"`
	// Tenants lists per-tenant state in name order; Jobs lists every
	// still-live job plus the most recent completions (oldest first,
	// bounded).
	Tenants []TenantStatus `json:"tenants"`
	Jobs    []JobStatus    `json:"jobs"`
}

// recentCap bounds the completed-job history Status reports.
const recentCap = 256

// job is one placed job's internal record. Policy and quantile are the
// ones it was submitted under: a migration re-places it under them.
type job struct {
	id       uint64
	spec     JobSpec
	policy   Policy
	quantile float64

	tenant      string
	predID      uint64
	part        *sor.Partition
	predMean    float64
	plannedExec float64
	placedAt    float64
	migrations  int

	started       bool
	start, finish float64
}

// tenant is the scheduler's per-tenant state.
type tenant struct {
	name    string
	queue   []*job // waiting, in placement order
	running *job
	doneAt  float64 // actual finish of the last completed job

	saturated  bool
	satUntil   float64
	relWidth   float64
	driftsSeen int
	skips      uint64
	completed  uint64
	everScored bool
}

// Scheduler places jobs across the fleet hosted by a predict.Registry.
// Safe for concurrent use.
type Scheduler struct {
	reg   *predict.Registry
	cfg   Config
	round *obs.Histogram // placement-round latency; nil without metrics

	mu       sync.Mutex
	nextID   uint64
	tenants  map[string]*tenant
	placed   map[Policy]int // placements, migrations included, by policy
	unplaced int
	misses   int
	migrated int
	done     int

	firstPlace float64 // earliest placement time (virtual), NaN until set
	lastFinish float64 // latest completion time (virtual)

	recent []JobStatus // completed ring, oldest first
}

// New builds a scheduler over reg. The registry may keep gaining (or
// losing) tenants afterwards: every placement round re-reads the live
// roster.
func New(reg *predict.Registry, cfg Config) *Scheduler {
	if cfg.SatRelWidth == 0 {
		cfg.SatRelWidth = DefaultSatRelWidth
	}
	s := &Scheduler{
		reg:        reg,
		cfg:        cfg,
		tenants:    make(map[string]*tenant),
		placed:     make(map[Policy]int, len(Policies)),
		firstPlace: math.NaN(),
	}
	s.registerMetrics(cfg.Metrics)
	return s
}

// Submit places jobs at PolicyQuantile and DefaultQuantile. See
// SubmitWith.
func (s *Scheduler) Submit(jobs []JobSpec) ([]Placement, error) {
	return s.SubmitWith(jobs, PolicyQuantile, DefaultQuantile)
}

// SubmitWith places jobs in order under policy, at quantile (in (0,1);
// PolicyQuantile reads it, and every placement reports it). Each job is
// scored on every live tenant (sorted by name) and committed to the
// cheapest; tenants that fail Lookup or Predict — a just-retired tenant,
// a broken spec — are skipped and recorded rather than failing the round.
// A job no tenant can score is dropped and counted in Status.Unplaced.
// The call returns one Placement per placed job, in submission order.
// It is an error to submit a malformed job (one predict.CheckJobShape
// refuses, or one above MaxJobWork) or an unknown policy.
func (s *Scheduler) SubmitWith(jobs []JobSpec, policy Policy, quantile float64) ([]Placement, error) {
	if _, err := ParsePolicy(string(policy)); err != nil {
		return nil, err
	}
	if quantile <= 0 || quantile >= 1 {
		return nil, fmt.Errorf("fleetsched: quantile %g outside (0,1)", quantile)
	}
	for i, js := range jobs {
		if err := predict.CheckJobShape(js.N, js.Iterations); err != nil {
			return nil, fmt.Errorf("fleetsched: job %d: %w", i, err)
		}
		if work := js.N * js.N * js.Iterations; work > MaxJobWork {
			return nil, fmt.Errorf("fleetsched: job %d: %d iterations of a %d x %d grid are %d element updates, exceeds limit %d",
				i, js.Iterations, js.N, js.N, work, MaxJobWork)
		}
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncLocked()
	placements := make([]Placement, 0, len(jobs))
	for _, js := range jobs {
		s.nextID++
		j := &job{id: s.nextID, spec: js, policy: policy, quantile: quantile}
		pl, ok := s.placeLocked(j, "", false)
		if !ok {
			s.unplaced++
			continue
		}
		placements = append(placements, pl)
	}
	s.round.Observe(time.Since(start).Seconds())
	return placements, nil
}

// placeLocked scores j on every live tenant under its policy and commits
// it to the cheapest. exclude names a tenant never to consider (the migration
// source). Saturated tenants are skipped unless no unsaturated tenant can
// be scored; onlyUnsaturated disables that fallback (the migration pass,
// which would rather keep a job than move it to another saturated
// tenant). Reports false — with j untouched — when no tenant qualifies.
func (s *Scheduler) placeLocked(j *job, exclude string, onlyUnsaturated bool) (Placement, bool) {
	names := s.reg.Names() // sorted: ties go to the first name
	type cand struct {
		name      string
		saturated bool
		score     float64
		exec      float64
		mean      float64
		svc       *predict.Service
		predID    uint64
		part      *sor.Partition
		now       float64
	}
	var best, bestSat *cand
	var scored []*cand
	skips := 0
	for _, name := range names {
		if name == exclude {
			continue
		}
		ts := s.tenantLocked(name)
		svc, err := s.reg.Lookup(name)
		if err != nil {
			ts.skips++
			skips++
			continue
		}
		req := predict.Request{N: j.spec.N, Iterations: j.spec.Iterations}
		if j.policy == PolicyQuantile {
			req.Distribution = true
		}
		pred, err := svc.Predict(req)
		if err != nil {
			ts.skips++
			skips++
			continue
		}
		ts.relWidth = relWidth(pred)
		ts.everScored = true
		exec := execScore(pred, j.policy, j.quantile)
		c := &cand{
			name:      name,
			saturated: ts.saturated,
			score:     s.backlogLocked(ts, svc.Now()) + exec,
			exec:      exec,
			mean:      pred.Value.Mean,
			svc:       svc,
			predID:    pred.ID,
			part:      pred.Partition,
			now:       svc.Now(),
		}
		scored = append(scored, c)
		if c.saturated {
			if bestSat == nil || c.score < bestSat.score {
				bestSat = c
			}
		} else if best == nil || c.score < best.score {
			best = c
		}
	}
	if best == nil && !onlyUnsaturated {
		best = bestSat // every scorable tenant saturated: degrade, don't drop
	}
	// Only the winner's prediction is ever observed. The others go back now:
	// left in their tenants' ledgers they would sit there until the bound
	// evicted them, and from then on every wave would evict live ones.
	for _, c := range scored {
		if c != best {
			c.svc.Discard(c.predID)
		}
	}
	if best == nil {
		return Placement{}, false
	}
	ts := s.tenantLocked(best.name)
	j.tenant = best.name
	j.predID = best.predID
	j.part = best.part
	j.predMean = best.mean
	j.plannedExec = best.exec
	j.placedAt = best.now
	ts.queue = append(ts.queue, j)
	if math.IsNaN(s.firstPlace) || best.now < s.firstPlace {
		s.firstPlace = best.now
	}
	s.placed[j.policy]++
	return Placement{
		JobID:         j.id,
		Name:          j.spec.Name,
		Tenant:        best.name,
		Policy:        j.policy,
		Quantile:      j.quantile,
		Score:         best.score,
		PredictedMean: best.mean,
		PredictedExec: best.exec,
		PredictionID:  best.predID,
		Time:          best.now,
		Deadline:      j.spec.Deadline,
		Skips:         skips,
	}, true
}

// tenantLocked returns (creating on first touch) the named tenant state.
func (s *Scheduler) tenantLocked(name string) *tenant {
	ts, ok := s.tenants[name]
	if !ok {
		ts = &tenant{name: name}
		s.tenants[name] = ts
	}
	return ts
}

// backlogLocked is the tenant's planned outstanding work in virtual
// seconds: the running job's remaining time plus every queued job's
// policy-scored execution time.
func (s *Scheduler) backlogLocked(ts *tenant, now float64) float64 {
	b := 0.0
	if ts.running != nil && ts.running.finish > now {
		b += ts.running.finish - now
	}
	for _, j := range ts.queue {
		b += j.plannedExec
	}
	return b
}

// Sync brings the schedule up to the fleet's current virtual clocks:
// starts and completes due jobs (feeding measured runtimes back through
// Observe), re-reads saturation signals, and migrates queued work away
// from saturated tenants. Callers advance the tenants' clocks (the
// daemon's tick loop, an experiment driver) and call Sync; the scheduler
// never advances a clock itself.
func (s *Scheduler) Sync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncLocked()
}

func (s *Scheduler) syncLocked() {
	names := s.sortedTenantsLocked()
	// Pass 1: execute due work and refresh saturation per tenant.
	for _, name := range names {
		ts := s.tenants[name]
		svc, err := s.reg.Lookup(name)
		if err != nil {
			// The tenant vanished mid-flight (retired): its queued jobs are
			// rescued by the migration pass below; a started job keeps its
			// already-computed finish and completes unobserved.
			ts.skips++
			s.saturateLocked(ts, ts.satUntil) // stays excluded
			s.completeVanishedLocked(ts)
			continue
		}
		now := svc.Now()
		s.runTenantLocked(ts, svc, now)
		s.refreshSaturationLocked(ts, svc, now)
	}
	// Pass 2: migrate queued jobs off saturated tenants.
	for _, name := range names {
		ts := s.tenants[name]
		if !ts.saturated || len(ts.queue) == 0 {
			continue
		}
		queue := ts.queue
		ts.queue = nil
		var kept []*job
		for _, j := range queue {
			// Only move a job somewhere unsaturated; shuffling work between
			// saturated tenants helps nobody.
			old := j.predID
			if _, ok := s.placeLocked(j, name, true); !ok {
				kept = append(kept, j)
				continue
			}
			// The job completes elsewhere now: the tenant it left will
			// never observe the prediction it was placed by.
			if src, err := s.reg.Lookup(name); err == nil {
				src.Discard(old)
			}
			j.migrations++
			s.migrated++
		}
		ts.queue = kept
	}
}

// runTenantLocked starts and completes jobs on one tenant up to virtual
// time now. Jobs run one at a time in placement order; a job's actual
// runtime is computed from the tenant's simulated environment the moment
// its start time is reached.
func (s *Scheduler) runTenantLocked(ts *tenant, svc *predict.Service, now float64) {
	for {
		if ts.running != nil {
			if now < ts.running.finish {
				return
			}
			s.completeLocked(ts, svc, ts.running)
			ts.running = nil
		}
		if len(ts.queue) == 0 {
			return
		}
		j := ts.queue[0]
		start := j.placedAt
		if ts.doneAt > start {
			start = ts.doneAt
		}
		if start > now {
			return
		}
		actual, err := s.execTime(svc, j, start)
		if err != nil || actual <= 0 {
			// An unexecutable job (machine mismatch after migration, say)
			// falls back to its planned time so the schedule still closes.
			actual = math.Max(j.plannedExec, 1e-9)
		}
		j.started = true
		j.start = start
		j.finish = start + actual
		ts.queue = ts.queue[1:]
		ts.running = j
	}
}

// completeLocked retires a finished job: Observe the measured runtime,
// count a deadline miss, and roll the job into the bounded history.
func (s *Scheduler) completeLocked(ts *tenant, svc *predict.Service, j *job) {
	if svc != nil && j.predID != 0 {
		// A stale ledger ID (evicted between placement and completion) is
		// not an error worth failing the sync over; calibration just
		// misses one outcome.
		_, _ = svc.Observe(j.predID, j.finish-j.start)
	}
	ts.doneAt = j.finish
	ts.completed++
	s.done++
	if j.finish > s.lastFinish {
		s.lastFinish = j.finish
	}
	missed := j.spec.Deadline > 0 && j.finish > j.spec.Deadline
	if missed {
		s.misses++
	}
	s.recent = append(s.recent, s.jobStatus(j, StateCompleted, missed))
	if len(s.recent) > recentCap {
		s.recent = s.recent[len(s.recent)-recentCap:]
	}
}

// completeVanishedLocked finishes the running job of a retired tenant at
// its already-computed finish time (unobserved: there is no service left
// to close the loop on).
func (s *Scheduler) completeVanishedLocked(ts *tenant) {
	if ts.running == nil {
		return
	}
	s.completeLocked(ts, nil, ts.running)
	ts.running = nil
}

// refreshSaturationLocked re-reads one tenant's saturation signals: new
// calibrator drift events and the latest relative interval width both
// saturate; a quiet tenant clears once the hold expires.
func (s *Scheduler) refreshSaturationLocked(ts *tenant, svc *predict.Service, now float64) {
	if drifts := svc.DriftCount(); drifts > ts.driftsSeen {
		ts.driftsSeen = drifts
		s.saturateLocked(ts, now+satHold)
	}
	if ts.everScored && ts.relWidth > s.cfg.SatRelWidth {
		s.saturateLocked(ts, now+satHold)
	}
	if ts.saturated && now >= ts.satUntil && ts.relWidth <= s.cfg.SatRelWidth {
		ts.saturated = false
	}
}

func (s *Scheduler) saturateLocked(ts *tenant, until float64) {
	ts.saturated = true
	if until > ts.satUntil {
		ts.satUntil = until
	}
}

// execTime computes a job's actual runtime starting at start, in virtual
// seconds, from the tenant's simulated environment: each strip's element
// updates integrated over the machine's true availability trajectory,
// plus the ghost-row exchanges at the dedicated link rate (the same
// communication model sched.StripTime plans against), maxed over strips.
func (s *Scheduler) execTime(svc *predict.Service, j *job, start float64) (float64, error) {
	part := j.part
	if part == nil {
		return 0, errors.New("fleetsched: job has no partition")
	}
	env := svc.Env()
	plat := svc.Platform()
	p := part.P()
	if p > plat.Size() {
		return 0, fmt.Errorf("fleetsched: partition spans %d machines, tenant has %d", p, plat.Size())
	}
	n := j.spec.N
	iters := j.spec.Iterations
	ghost := float64(n-2) * 8
	longest := 0.0
	for m := 0; m < p; m++ {
		elems := float64(part.Rows[m]*(n-2)) * float64(iters)
		d, err := env.WorkDuration(m, elems, start)
		if err != nil {
			return 0, err
		}
		neighbors := 0
		comm := 0.0
		if m > 0 {
			neighbors++
		}
		if m < p-1 {
			neighbors++
		}
		if neighbors > 0 {
			other := m - 1
			if other < 0 {
				other = m + 1
			}
			link, err := plat.Link(m, other)
			if err != nil {
				return 0, err
			}
			comm = float64(4*neighbors*iters) * (ghost/link.DedBW + link.Latency)
		}
		if d+comm > longest {
			longest = d + comm
		}
	}
	return longest, nil
}

// sortedTenantsLocked returns the touched-tenant names in sorted order.
func (s *Scheduler) sortedTenantsLocked() []string {
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (s *Scheduler) saturatedCountLocked() int {
	n := 0
	for _, ts := range s.tenants {
		if ts.saturated {
			n++
		}
	}
	return n
}

func (s *Scheduler) skipsLocked() int {
	n := 0
	for _, ts := range s.tenants {
		n += int(ts.skips)
	}
	return n
}

func (s *Scheduler) queuedCountLocked() int {
	n := 0
	for _, ts := range s.tenants {
		n += len(ts.queue)
		if ts.running != nil {
			n++
		}
	}
	return n
}

func (s *Scheduler) jobStatus(j *job, state string, missed bool) JobStatus {
	return JobStatus{
		ID:            j.id,
		Name:          j.spec.Name,
		Tenant:        j.tenant,
		State:         state,
		N:             j.spec.N,
		Iterations:    j.spec.Iterations,
		PlacedAt:      j.placedAt,
		Start:         j.start,
		Finish:        j.finish,
		Deadline:      j.spec.Deadline,
		PredictedExec: j.plannedExec,
		Migrations:    j.migrations,
		Missed:        missed,
	}
}

// Status returns a consistent snapshot. It does not advance the schedule;
// call Sync first to fold in clock progress.
func (s *Scheduler) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Completed:  s.done,
		Misses:     s.misses,
		Migrations: s.migrated,
		Unplaced:   s.unplaced,
	}
	st.Submitted = int(s.nextID)
	if s.done > 0 && !math.IsNaN(s.firstPlace) {
		st.Makespan = s.lastFinish - s.firstPlace
	}
	for _, name := range s.sortedTenantsLocked() {
		ts := s.tenants[name]
		t := TenantStatus{
			Name:        name,
			Queued:      len(ts.queue),
			Running:     ts.running != nil,
			Saturated:   ts.saturated,
			SatUntil:    ts.satUntil,
			RelWidth:    ts.relWidth,
			DriftEvents: ts.driftsSeen,
			Skips:       ts.skips,
			Completed:   ts.completed,
		}
		if svc, err := s.reg.Lookup(name); err == nil {
			t.Time = svc.Now()
		}
		if ts.saturated {
			st.SaturatedTenants++
		}
		st.Queued += len(ts.queue)
		if ts.running != nil {
			st.Running++
			st.Jobs = append(st.Jobs, s.jobStatus(ts.running, StateRunning, false))
		}
		for _, j := range ts.queue {
			st.Jobs = append(st.Jobs, s.jobStatus(j, StateQueued, false))
		}
		st.Tenants = append(st.Tenants, t)
	}
	st.Jobs = append(st.Jobs, s.recent...)
	sort.Slice(st.Jobs, func(i, k int) bool { return st.Jobs[i].ID < st.Jobs[k].ID })
	return st
}

// execScore maps a prediction onto the policy's execution-time score, in
// virtual seconds. PolicyQuantile reads the calibrated quantile grid when
// the prediction carries one and falls back to the normal-interpretation
// quantile of the calibrated two-number value otherwise; PolicyMean and
// PolicyUpper reuse the sched objectives.
func execScore(pred predict.Prediction, policy Policy, quantile float64) float64 {
	switch policy {
	case PolicyMean:
		return sched.MeanObjective(pred.Value)
	case PolicyUpper:
		return sched.UpperBoundObjective(pred.Value)
	default:
		if v, ok := pred.Dist.Quantile(quantile); ok {
			return v
		}
		return sched.QuantileObjective(quantile)(pred.Value)
	}
}

// relWidth is a prediction's relative interval width: the calibrated 95%
// interval's full width over its median (grid when present, the
// two-number value otherwise). It is the saturation detector's
// uncertainty signal — dimensionless, so one threshold covers fast and
// slow tenants alike.
func relWidth(pred predict.Prediction) float64 {
	if lo, ok := pred.Dist.Quantile(0.025); ok {
		hi, _ := pred.Dist.Quantile(0.975)
		med, _ := pred.Dist.Quantile(0.5)
		if med > 0 {
			return (hi - lo) / med
		}
	}
	if pred.Value.Mean > 0 {
		return (pred.Value.Hi() - pred.Value.Lo()) / pred.Value.Mean
	}
	return 0
}
