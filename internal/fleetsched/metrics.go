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

// registerMetrics registers (or finds) the fleetsched families on reg, one
// placement series per policy, so the documented catalog exists from the
// first scrape. Every counter and gauge reads the scheduler's own fields
// under s.mu when scraped — the scheduler is not snapshotted, so its counts
// are this process's — and only the round latency is pushed. A nil reg
// registers nothing.
func (s *Scheduler) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	count := func(read func() int) obs.CounterFunc {
		return func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(read())
		}
	}
	level := func(read func() int) obs.GaugeFunc {
		c := count(read)
		return func() float64 { return float64(c()) }
	}
	placements := reg.NewCounterVec(MetricPlacements,
		"Jobs placed, by placement policy.", "policy")
	for _, p := range Policies {
		placements.Func(count(func() int { return s.placed[p] }), string(p))
	}
	reg.NewCounterVec(MetricMigrations,
		"Queued jobs migrated away from saturated tenants by the rebalancer.").
		Func(count(func() int { return s.migrated }))
	reg.NewCounterVec(MetricTenantSkips,
		"Tenants skipped during placement or sync on lookup/predict errors (e.g. just retired).").
		Func(count(s.skipsLocked))
	reg.NewCounterVec(MetricUnplaced,
		"Submitted jobs dropped because no tenant could be scored.").
		Func(count(func() int { return s.unplaced }))
	reg.NewCounterVec(MetricJobsCompleted,
		"Jobs completed by the fleet scheduler.").
		Func(count(func() int { return s.done }))
	reg.NewCounterVec(MetricDeadlineMisses,
		"Completed jobs that finished after their deadline.").
		Func(count(func() int { return s.misses }))
	reg.NewGaugeVec(MetricSaturated,
		"Tenants currently marked saturated (excluded from placement).").
		Func(level(s.saturatedCountLocked))
	reg.NewGaugeVec(MetricJobsOutstanding,
		"Jobs currently queued or running across the fleet.").
		Func(level(s.queuedCountLocked))
	s.round = reg.NewHistogram(MetricRoundDuration,
		"Wall-clock latency of one placement round in seconds.", nil)
}
