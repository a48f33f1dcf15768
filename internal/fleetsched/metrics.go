package fleetsched

import (
	"prodpred/internal/obs"
)

// Scheduler metric family names, as exposed on GET /metrics. The full
// catalog lives in OPERATIONS.md, and internal/readmecheck fails the build
// if a registered name is missing from it.
const (
	MetricPlacements      = "fleetsched_placements_total"
	MetricMigrations      = "fleetsched_migrations_total"
	MetricTenantSkips     = "fleetsched_tenant_skips_total"
	MetricUnplaced        = "fleetsched_unplaced_jobs_total"
	MetricJobsCompleted   = "fleetsched_jobs_completed_total"
	MetricDeadlineMisses  = "fleetsched_deadline_misses_total"
	MetricSaturated       = "fleetsched_saturated_tenants"
	MetricJobsOutstanding = "fleetsched_jobs_outstanding"
	MetricRoundDuration   = "fleetsched_schedule_duration_seconds"
)

// Policies lists every placement policy, for eager label registration.
var Policies = []Policy{PolicyMean, PolicyQuantile, PolicyUpper}

// Metrics holds the scheduler's pre-resolved metric series. A nil *Metrics
// makes every record call a cheap no-op, and telemetry never feeds back
// into placement: the schedule is identical with metrics on or off.
type Metrics struct {
	placements map[Policy]*obs.Counter
	migrations *obs.Counter
	skips      *obs.Counter
	unplaced   *obs.Counter
	completed  *obs.Counter
	misses     *obs.Counter
	saturated  *obs.Gauge
	queued     *obs.Gauge
	round      *obs.Histogram
}

// NewMetrics registers (or finds) the fleetsched families on reg and
// resolves every series eagerly — one series per placement policy — so the
// documented catalog exists from the first scrape. A nil reg returns nil,
// which every record method treats as a no-op.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{
		placements: make(map[Policy]*obs.Counter, len(Policies)),
		migrations: reg.NewCounter(MetricMigrations,
			"Queued jobs migrated away from saturated tenants by the rebalancer."),
		skips: reg.NewCounter(MetricTenantSkips,
			"Tenants skipped during placement or sync on lookup/predict errors (e.g. just retired)."),
		unplaced: reg.NewCounter(MetricUnplaced,
			"Submitted jobs dropped because no tenant could be scored."),
		completed: reg.NewCounter(MetricJobsCompleted,
			"Jobs completed by the fleet scheduler."),
		misses: reg.NewCounter(MetricDeadlineMisses,
			"Completed jobs that finished after their deadline."),
		saturated: reg.NewGauge(MetricSaturated,
			"Tenants currently marked saturated (excluded from placement)."),
		queued: reg.NewGauge(MetricJobsOutstanding,
			"Jobs currently queued or running across the fleet."),
		round: reg.NewHistogram(MetricRoundDuration,
			"Wall-clock latency of one placement round in seconds.", nil),
	}
	vec := reg.NewCounterVec(MetricPlacements,
		"Jobs placed, by placement policy.", "policy")
	for _, p := range Policies {
		m.placements[p] = vec.With(string(p))
	}
	return m
}

func (m *Metrics) recordPlacement(p Policy) {
	if m == nil {
		return
	}
	if c, ok := m.placements[p]; ok {
		c.Inc()
	}
}

func (m *Metrics) recordMigration() {
	if m != nil {
		m.migrations.Inc()
	}
}

func (m *Metrics) recordSkip() {
	if m != nil {
		m.skips.Inc()
	}
}

func (m *Metrics) recordUnplaced() {
	if m != nil {
		m.unplaced.Inc()
	}
}

func (m *Metrics) recordCompletion(missed bool) {
	if m == nil {
		return
	}
	m.completed.Inc()
	if missed {
		m.misses.Inc()
	}
}

func (m *Metrics) recordGauges(saturated, outstanding int) {
	if m == nil {
		return
	}
	m.saturated.Set(float64(saturated))
	m.queued.Set(float64(outstanding))
}

func (m *Metrics) recordRound(seconds float64) {
	if m != nil {
		m.round.Observe(seconds)
	}
}
