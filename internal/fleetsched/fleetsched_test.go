package fleetsched

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"prodpred/internal/load"
	"prodpred/internal/obs"
	"prodpred/internal/predict"
	"prodpred/internal/workload"
)

// testSpec is one small two-machine tenant for scheduler tests.
func testSpec(name, kind, loadKind string, seed int64) predict.PlatformSpec {
	return predict.PlatformSpec{
		Name: name,
		Machines: []predict.MachineSpec{
			{Name: "m0", Kind: kind},
			{Name: "m1", Kind: kind},
		},
		CPU:    []workload.LoadSpec{{Kind: loadKind}},
		Seed:   seed,
		Warmup: 150,
	}
}

func testRegistry(t *testing.T, specs ...predict.PlatformSpec) *predict.Registry {
	t.Helper()
	reg := predict.NewRegistry()
	for _, sp := range specs {
		if err := reg.RegisterSpec(sp); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// advance moves every live tenant clock forward dt virtual seconds.
func advance(t *testing.T, reg *predict.Registry, dt float64) {
	t.Helper()
	for _, svc := range reg.Services() {
		if err := svc.Advance(dt); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	reg := testRegistry(t, testSpec("a", "sparc5", "light", 11))
	s := New(reg, Config{})
	if _, err := s.Submit([]JobSpec{{N: 2, Iterations: 1}}); err == nil {
		t.Error("N=2 should be rejected")
	}
	if _, err := s.Submit([]JobSpec{{N: 50, Iterations: 0}}); err == nil {
		t.Error("zero iterations should be rejected")
	}
	if _, err := s.SubmitWith([]JobSpec{{N: 50, Iterations: 1}}, "median", 0.5); err == nil {
		t.Error("unknown policy should be rejected")
	}
	if _, err := s.SubmitWith([]JobSpec{{N: 50, Iterations: 1}}, PolicyQuantile, 1.5); err == nil {
		t.Error("quantile outside (0,1) should be rejected")
	}
	if _, err := s.SubmitWith([]JobSpec{{N: 50, Iterations: 1}}, "", DefaultQuantile); err == nil {
		t.Error("an empty policy should be rejected: the caller names one")
	}
	if _, err := ParsePolicy("quantile"); err != nil {
		t.Error(err)
	}
	if _, err := ParsePolicy("p95"); err == nil {
		t.Error("ParsePolicy should reject unknown names")
	}
}

func TestPlacementPrefersFasterTenant(t *testing.T) {
	// Identical light loads; ultra machines are 8x faster than sparc2, so
	// every policy should place there.
	reg := testRegistry(t,
		testSpec("fast", "ultra", "light", 21),
		testSpec("slow", "sparc2", "light", 22),
	)
	if names := reg.Names(); !sort.StringsAreSorted(names) { // placeLocked walks them as given
		t.Fatalf("Registry.Names() = %v, want sorted", names)
	}
	for _, policy := range Policies {
		s := New(reg, Config{})
		pls, err := s.SubmitWith([]JobSpec{{N: 120, Iterations: 10}}, policy, DefaultQuantile)
		if err != nil {
			t.Fatal(err)
		}
		if len(pls) != 1 || pls[0].Tenant != "fast" {
			t.Errorf("policy %s placed on %+v, want fast", policy, pls)
		}
		if pls[0].PredictedExec <= 0 || pls[0].Score < pls[0].PredictedExec {
			t.Errorf("policy %s placement %+v has bad score fields", policy, pls[0])
		}
	}
}

func TestBacklogSpreadsWork(t *testing.T) {
	// Two equal tenants: a burst of identical jobs should not all pile on
	// one, because each placement adds its planned time to the backlog.
	reg := testRegistry(t,
		testSpec("a", "sparc10", "light", 31),
		testSpec("b", "sparc10", "light", 32),
	)
	s := New(reg, Config{})
	jobs := make([]JobSpec, 6)
	for i := range jobs {
		jobs[i] = JobSpec{N: 200, Iterations: 50}
	}
	pls, err := s.SubmitWith(jobs, PolicyMean, DefaultQuantile)
	if err != nil {
		t.Fatal(err)
	}
	byTenant := map[string]int{}
	for _, pl := range pls {
		byTenant[pl.Tenant]++
	}
	if byTenant["a"] == 0 || byTenant["b"] == 0 {
		t.Errorf("backlog-blind placement: %v", byTenant)
	}
}

func TestLifecycleCompletesAndObserves(t *testing.T) {
	reg := testRegistry(t,
		testSpec("a", "sparc10", "light", 41),
		testSpec("b", "sparc5", "light", 42),
	)
	s := New(reg, Config{Metrics: obs.NewRegistry()})
	deadline := 150.0 + 4000
	pls, err := s.Submit([]JobSpec{
		{Name: "j1", N: 200, Iterations: 60, Deadline: deadline},
		{Name: "j2", N: 200, Iterations: 60, Deadline: deadline},
		{Name: "j3", N: 150, Iterations: 40},
	})
	if err != nil || len(pls) != 3 {
		t.Fatalf("placements=%v err=%v", pls, err)
	}
	st := s.Status()
	if st.Queued+st.Running != 3 || st.Completed != 0 {
		t.Fatalf("pre-sync status %+v", st)
	}
	var obsBefore int
	for _, svc := range reg.Services() {
		obsBefore += svc.Accuracy().Observed
	}
	for tick := 0; tick < 400 && s.Status().Completed < 3; tick++ {
		advance(t, reg, 5)
		s.Sync()
	}
	st = s.Status()
	if st.Completed != 3 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("jobs did not complete: %+v", st)
	}
	if st.Makespan <= 0 {
		t.Errorf("makespan %g not positive", st.Makespan)
	}
	if st.Misses != 0 {
		t.Errorf("unexpected deadline misses in %+v", st)
	}
	var obsAfter int
	for _, svc := range reg.Services() {
		obsAfter += svc.Accuracy().Observed
	}
	if obsAfter != obsBefore+3 {
		t.Errorf("observe feedback: %d -> %d, want +3", obsBefore, obsAfter)
	}
	// Completed jobs stay visible with start/finish stamps.
	for _, j := range st.Jobs {
		if j.State != StateCompleted || j.Finish <= j.Start || j.Start <= 0 {
			t.Errorf("bad completed job %+v", j)
		}
	}
	requireLedgersEmpty(t, reg)
}

// TestLongJobReplaysNothing runs jobs that take far longer than load.Window
// ticks on a tenant two virtual hours old. The truth walk that times each
// job reads its machines' load ahead of the clock; the monitors then sample
// those ticks as the clock catches up, and must find them kept instead of
// replaying the tenant's hours of load from tick 0.
func TestLongJobReplaysNothing(t *testing.T) {
	spec, err := predict.SimulatedSpec(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := testRegistry(t, spec)
	svc, err := reg.Lookup(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	for svc.Now() < 2*3600 {
		advance(t, reg, 5)
	}
	// The first prediction at a grid size starts its bandwidth monitor from
	// time zero, a replay of its own (OPERATIONS.md "Memory and age").
	if _, err := svc.Predict(predict.Request{N: 2000, Iterations: 400}); err != nil {
		t.Fatal(err)
	}
	before, _ := load.Replays()
	s := New(reg, Config{})
	jobs := []JobSpec{{N: 2000, Iterations: 400}, {N: 2000, Iterations: 400}, {N: 2000, Iterations: 400}}
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 400 && s.Status().Completed < len(jobs); tick++ {
		advance(t, reg, 25)
		s.Sync()
	}
	st := s.Status()
	if st.Completed != len(jobs) {
		t.Fatalf("jobs did not complete: %+v", st)
	}
	longest := 0.0
	for _, j := range st.Jobs {
		longest = max(longest, j.Finish-j.Start)
	}
	if ticks := longest / svc.Env().CPULoad(0).Interval(); ticks <= load.Window {
		t.Fatalf("longest job ran %g ticks, not past the %d-tick window", ticks, load.Window)
	}
	if after, _ := load.Replays(); after != before {
		t.Errorf("running the jobs replayed load %d times from tick 0", after-before)
	}
}

// requireLedgersEmpty: once every job has completed, no tenant still holds a
// prediction the scheduler asked for — not the winners' (observed), not the
// scored-but-not-chosen candidates', not a migrated job's first one.
func requireLedgersEmpty(t *testing.T, reg *predict.Registry) {
	t.Helper()
	for _, svc := range reg.Services() {
		if n := svc.Outstanding(); n != 0 {
			t.Errorf("tenant %s still holds %d of the scheduler's predictions", svc.Name(), n)
		}
	}
}

func TestDeadlineMissCounted(t *testing.T) {
	reg := testRegistry(t, testSpec("a", "sparc2", "light", 51))
	s := New(reg, Config{})
	// An absurd deadline in the past guarantees a miss.
	if _, err := s.SubmitWith([]JobSpec{{N: 150, Iterations: 30, Deadline: 1}}, PolicyMean, DefaultQuantile); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 400 && s.Status().Completed < 1; tick++ {
		advance(t, reg, 5)
		s.Sync()
	}
	st := s.Status()
	if st.Completed != 1 || st.Misses != 1 {
		t.Fatalf("want 1 completion + 1 miss, got %+v", st)
	}
	if len(st.Jobs) != 1 || !st.Jobs[0].Missed {
		t.Errorf("job not flagged missed: %+v", st.Jobs)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() Status {
		reg := testRegistry(t,
			testSpec("a", "sparc10", "platform2-bursty", 61),
			testSpec("b", "sparc5", "light", 62),
			testSpec("c", "ultra", "platform1-center", 63),
		)
		s := New(reg, Config{})
		for wave := 0; wave < 3; wave++ {
			if _, err := s.Submit([]JobSpec{
				{N: 180, Iterations: 40, Deadline: 2000},
				{N: 140, Iterations: 30, Deadline: 2000},
			}); err != nil {
				t.Fatal(err)
			}
			for tick := 0; tick < 12; tick++ {
				advance(t, reg, 5)
				s.Sync()
			}
		}
		for tick := 0; tick < 600 && s.Status().Completed < 6; tick++ {
			advance(t, reg, 5)
			s.Sync()
		}
		return s.Status()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("schedule not deterministic:\n%+v\nvs\n%+v", a, b)
	}
	if a.Completed != 6 {
		t.Errorf("expected all 6 jobs to complete: %+v", a)
	}
}

// TestRetiredTenantSkipped is the regression test for the fleet-path miss
// handling: a scheduler querying a just-retired tenant must skip and
// record it, not fail the placement round.
func TestRetiredTenantSkipped(t *testing.T) {
	reg := testRegistry(t,
		testSpec("keep", "sparc10", "light", 71),
		testSpec("gone", "ultra", "light", 72),
	)
	metrics := obs.NewRegistry()
	s := New(reg, Config{Metrics: metrics})
	// Warm the scheduler's view of both tenants, queueing work on the
	// faster one (which is about to retire).
	pls, err := s.Submit([]JobSpec{{N: 200, Iterations: 80}, {N: 200, Iterations: 80}})
	if err != nil {
		t.Fatal(err)
	}
	queuedOnGone := 0
	for _, pl := range pls {
		if pl.Tenant == "gone" {
			queuedOnGone++
		}
	}
	if queuedOnGone == 0 {
		t.Fatal("test setup: expected at least one job on the ultra tenant")
	}
	if err := reg.Retire("gone"); err != nil {
		t.Fatal(err)
	}
	// Placement after the retire succeeds and lands on the survivor; the
	// sync pass in front of it queries the vanished tenant (which still
	// holds queued work), skips it, and records the skip.
	pls, err = s.Submit([]JobSpec{{N: 150, Iterations: 40}})
	if err != nil {
		t.Fatalf("placement round failed on retired tenant: %v", err)
	}
	if len(pls) != 1 || pls[0].Tenant != "keep" {
		t.Fatalf("want placement on keep, got %+v", pls)
	}
	// Sync rescues the retired tenant's queued jobs onto the survivor.
	advance(t, reg, 5)
	s.Sync()
	st := s.Status()
	for _, j := range st.Jobs {
		if j.State == StateQueued && j.Tenant == "gone" {
			t.Errorf("job still queued on retired tenant: %+v", j)
		}
	}
	var goneTS *TenantStatus
	for i := range st.Tenants {
		if st.Tenants[i].Name == "gone" {
			goneTS = &st.Tenants[i]
		}
	}
	if goneTS == nil || goneTS.Skips == 0 {
		t.Errorf("skip bookkeeping missing for retired tenant: %+v", st.Tenants)
	}
	// Everything still completes on the survivor.
	for tick := 0; tick < 1000 && s.Status().Completed < 3; tick++ {
		advance(t, reg, 5)
		s.Sync()
	}
	if st = s.Status(); st.Completed != 3 {
		t.Errorf("jobs lost after retire: %+v", st)
	}
	skips := uint64(0)
	for _, ts := range st.Tenants {
		skips += ts.Skips
	}
	m := scrape(t, metrics)
	if m[MetricTenantSkips] != float64(skips) || m[MetricJobsCompleted] != 3 {
		t.Errorf("metrics read %g skips and %g completions, status %d and 3", m[MetricTenantSkips], m[MetricJobsCompleted], skips)
	}
}

// TestMigrationOffSaturatedTenant drives the rebalancer directly: with a
// tenant marked saturated, Sync must move its queued (not running) work to
// an unsaturated tenant and count the migrations.
func TestMigrationOffSaturatedTenant(t *testing.T) {
	reg := testRegistry(t,
		testSpec("hot", "ultra", "light", 81),
		testSpec("cold", "sparc2", "light", 82),
	)
	metrics := obs.NewRegistry()
	s := New(reg, Config{Metrics: metrics})
	// Everything lands on the 16x-faster tenant.
	pls, err := s.Submit([]JobSpec{
		{N: 200, Iterations: 80}, {N: 200, Iterations: 80}, {N: 200, Iterations: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range pls {
		if pl.Tenant != "hot" {
			t.Fatalf("test setup: expected all jobs on hot, got %+v", pls)
		}
	}
	// Saturate it (white-box: organic saturation is exercised by the
	// fleet-sched experiment; this pins the rebalancing mechanics).
	s.mu.Lock()
	s.saturateLocked(s.tenants["hot"], 1e12)
	s.mu.Unlock()
	advance(t, reg, 1)
	s.Sync()
	st := s.Status()
	if st.Migrations == 0 {
		t.Fatalf("no migrations recorded: %+v", st)
	}
	if st.SaturatedTenants != 1 {
		t.Errorf("saturated gauge: %+v", st)
	}
	// A migration is a placement too.
	m := scrape(t, metrics)
	if m[MetricMigrations] != float64(st.Migrations) || m[MetricSaturated] != 1 ||
		m[MetricPlacements+`{policy="quantile"}`] != float64(3+st.Migrations) {
		t.Errorf("metrics %v disagree with status %+v", m, st)
	}
	for _, j := range st.Jobs {
		if j.State == StateQueued && j.Tenant == "hot" {
			t.Errorf("queued job left on saturated tenant: %+v", j)
		}
		if j.State == StateRunning && j.Tenant != "hot" {
			t.Errorf("running job should not migrate: %+v", j)
		}
	}
	for tick := 0; tick < 4000 && s.Status().Completed < 3; tick++ {
		advance(t, reg, 5)
		s.Sync()
	}
	if st := s.Status(); st.Completed != 3 {
		t.Fatalf("jobs did not complete: %+v", st)
	}
	requireLedgersEmpty(t, reg)
}

// TestMigrationKeepsJobPolicy: a migrated job is re-placed under the policy
// it was submitted with, not the scheduler's default. Jobs placed by mean
// and moved off a saturated tenant commit to their new tenant's predicted
// mean, so that tenant's backlog stays in one unit.
func TestMigrationKeepsJobPolicy(t *testing.T) {
	reg := testRegistry(t,
		testSpec("hot", "ultra", "light", 81),
		testSpec("cold", "sparc2", "light", 82),
	)
	s := New(reg, Config{})
	jobs := []JobSpec{{N: 200, Iterations: 80}, {N: 200, Iterations: 80}, {N: 200, Iterations: 80}}
	pls, err := s.SubmitWith(jobs, PolicyMean, DefaultQuantile)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range pls {
		if pl.Tenant != "hot" {
			t.Fatalf("test setup: expected all jobs on hot, got %+v", pls)
		}
	}
	s.mu.Lock()
	s.saturateLocked(s.tenants["hot"], 1e12)
	s.mu.Unlock()
	advance(t, reg, 1)
	s.Sync()
	cold, err := reg.Lookup("cold")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := cold.Predict(predict.Request{N: 200, Iterations: 80})
	if err != nil {
		t.Fatal(err)
	}
	cold.Discard(pred.ID)
	migrated := 0
	for _, j := range s.Status().Jobs {
		if j.Migrations == 0 {
			continue
		}
		migrated++
		if j.Tenant != "cold" || j.PredictedExec != pred.Value.Mean {
			t.Errorf("migrated job %d: on %s with predicted_exec %g, want cold's mean %g", j.ID, j.Tenant, j.PredictedExec, pred.Value.Mean)
		}
	}
	if migrated == 0 {
		t.Fatal("no job migrated")
	}
}

// TestStatusMetricNamesRegistered pins the metric families the OPERATIONS
// catalog documents.
func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	New(predict.NewRegistry(), Config{Metrics: reg})
	names := map[string]bool{}
	for _, n := range reg.MetricNames() {
		names[n] = true
	}
	for _, want := range []string{
		MetricPlacements, MetricMigrations, MetricTenantSkips, MetricUnplaced,
		MetricJobsCompleted, MetricDeadlineMisses, MetricSaturated,
		MetricJobsOutstanding, MetricRoundDuration,
	} {
		if !names[want] {
			t.Errorf("metric %s not registered", want)
		}
	}
}

// scrape renders reg and returns every sample line's value, keyed by the
// text before it (name plus labels).
func scrape(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestJobsOutstandingAfterSubmit: the outstanding-jobs gauge reads the
// queues a placement round just filled, with no Sync in between.
func TestJobsOutstandingAfterSubmit(t *testing.T) {
	reg := testRegistry(t,
		testSpec("a", "sparc10", "light", 91),
		testSpec("b", "sparc5", "light", 92),
	)
	metrics := obs.NewRegistry()
	s := New(reg, Config{Metrics: metrics})
	jobs := make([]JobSpec, 32)
	for i := range jobs {
		jobs[i] = JobSpec{N: 150, Iterations: 10 + i%3}
	}
	if pls, err := s.Submit(jobs); err != nil || len(pls) != len(jobs) {
		t.Fatalf("placed %d of %d: %v", len(pls), len(jobs), err)
	}
	m := scrape(t, metrics)
	if got := m[MetricJobsOutstanding]; got != 32 {
		t.Errorf("%s = %g after a 32-job submit, want 32", MetricJobsOutstanding, got)
	}
	if got := m[MetricPlacements+`{policy="quantile"}`]; got != 32 {
		t.Errorf("%s{policy=quantile} = %g, want 32", MetricPlacements, got)
	}
}
