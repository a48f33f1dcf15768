package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2",
		"fig1-2", "fig3-4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10-11", "fig12-13", "fig14-15", "fig16-17",
		"dedicated", "longtail", "maxops", "allocation",
		"ablation-iteration-rel", "ablation-forecaster",
		"ablation-modal", "ablation-maxstrategy",
		"ablation-empirical", "ablation-partition",
		"ablation-selfsched", "ablation-objective",
		"host-tcp", "host-bench",
		"robust-faults", "calib-replay", "dist-tournament",
		"workload-scenarios", "fleet-sched",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
}

func TestLookup(t *testing.T) {
	e, err := Lookup("table1")
	if err != nil || e.ID != "table1" {
		t.Errorf("Lookup=%+v err=%v", e, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown ID should fail")
	}
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i].ID < all[i-1].ID {
			t.Error("All() not sorted")
		}
	}
}

func TestResultMetric(t *testing.T) {
	r := &Result{ID: "x", Metrics: map[string]float64{"a": 1}}
	if v, err := r.Metric("a"); err != nil || v != 1 {
		t.Errorf("Metric=%g err=%v", v, err)
	}
	if _, err := r.Metric("b"); err == nil {
		t.Error("missing metric should fail")
	}
}

// assertMetric checks lo <= metrics[name] <= hi.
func assertMetric(t *testing.T, r *Result, name string, lo, hi float64) {
	t.Helper()
	v, err := r.Metric(name)
	if err != nil {
		t.Fatal(err)
	}
	if v < lo || v > hi {
		t.Errorf("%s: %s=%g outside [%g, %g]", r.ID, name, v, lo, hi)
	}
}

func runExp(t *testing.T, id string, seed int64) *Result {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(seed)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.Text == "" {
		t.Fatalf("%s: empty text", id)
	}
	return r
}

func TestTable1Shape(t *testing.T) {
	r := runExp(t, "table1", 1)
	// Both machines average ~12 s, A stable (<10%), B volatile (>20%).
	assertMetric(t, r, "meanA", 11, 13)
	assertMetric(t, r, "meanB", 11, 13.5)
	assertMetric(t, r, "relSpreadA", 0, 0.10)
	assertMetric(t, r, "relSpreadB", 0.20, 0.70)
}

func TestTable2Shape(t *testing.T) {
	r := runExp(t, "table2", 1)
	// Unrelated rules match Monte Carlo within a few percent.
	assertMetric(t, r, "add_mc_mean_err", 0, 0.02)
	assertMetric(t, r, "add_mc_spread_err", 0, 0.05)
	assertMetric(t, r, "mul_mc_mean_err", 0, 0.02)
	assertMetric(t, r, "mul_mc_spread_err", 0, 0.08)
}

func TestFig12Shape(t *testing.T) {
	r := runExp(t, "fig1-2", 1)
	assertMetric(t, r, "mean", 10, 12.5)
	assertMetric(t, r, "ks_p", 0.01, 1) // normal fit not rejected
	assertMetric(t, r, "coverage2s", 0.9, 1)
}

func TestFig34Shape(t *testing.T) {
	r := runExp(t, "fig3-4", 29)
	assertMetric(t, r, "mean_mbit", 5.0, 5.5) // paper: 5.25
	assertMetric(t, r, "coverage2s", 0.88, 0.94)
	assertMetric(t, r, "skewness", -5, -1) // long left tail
	assertMetric(t, r, "jb_p", 0, 0.01)    // decisively non-normal
}

func TestFig5Shape(t *testing.T) {
	r := runExp(t, "fig5", 1)
	assertMetric(t, r, "modes", 3, 3)
	assertMetric(t, r, "mode1_mean", 0.28, 0.38) // paper: 0.33
	assertMetric(t, r, "mode2_mean", 0.43, 0.54) // paper: 0.49
	assertMetric(t, r, "mode3_mean", 0.89, 0.99) // paper: 0.94
}

func TestFig8Shape(t *testing.T) {
	r := runExp(t, "fig8", 1)
	assertMetric(t, r, "mean", 0.45, 0.51)   // paper: 0.48
	assertMetric(t, r, "spread", 0.03, 0.08) // paper: 0.05
}

func TestFig1011Shape(t *testing.T) {
	r := runExp(t, "fig10-11", 1)
	assertMetric(t, r, "modes", 3, 5) // paper: 4
	assertMetric(t, r, "transition_rate", 0.02, 0.3)
}

func TestLongtailShape(t *testing.T) {
	r := runExp(t, "longtail", 1)
	assertMetric(t, r, "norm_cov2", 0.94, 0.97)
	// Long-tailed data deviates from the nominal band at 1 sigma.
	v1, _ := r.Metric("long_cov1")
	n1, _ := r.Metric("norm_cov1")
	if v1 == n1 {
		t.Error("long-tailed and normal 1-sigma coverage identical")
	}
}

func TestMaxOpsShape(t *testing.T) {
	r := runExp(t, "maxops", 1)
	assertMetric(t, r, "mean_strategy", 4, 4) // A has the largest mean
	assertMetric(t, r, "mag_strategy", 5, 5)  // B's range tops at 5
	assertMetric(t, r, "clark_mean_err", 0, 0.03)
	mc, _ := r.Metric("mc_mean")
	if mc <= 4 {
		t.Errorf("MC max mean %g should exceed 4", mc)
	}
}

func TestAllocationShape(t *testing.T) {
	r := runExp(t, "allocation", 1)
	consP, _ := r.Metric("high-penalty_conservative_penalty")
	meanP, _ := r.Metric("high-penalty_mean_penalty")
	optP, _ := r.Metric("high-penalty_optimistic_penalty")
	if !(consP < meanP && meanP < optP) {
		t.Errorf("penalty ordering wrong: cons=%g mean=%g opt=%g", consP, meanP, optP)
	}
	assertMetric(t, r, "unitB_cov", 0.93, 0.97)
}

func TestFig6And7(t *testing.T) {
	r := runExp(t, "fig6", 1)
	assertMetric(t, r, "strips", 4, 4)
	if !strings.Contains(r.Text, "P1") {
		t.Error("fig6 missing strips")
	}
	r = runExp(t, "fig7", 1)
	skew, _ := r.Metric("max_skew")
	bound, _ := r.Metric("skew_bound")
	if skew <= 0 {
		t.Errorf("skew=%g should be positive under uneven load", skew)
	}
	if skew > bound {
		t.Errorf("skew %g exceeds loose-synchronization bound %g", skew, bound)
	}
}

func TestAblationEmpiricalShape(t *testing.T) {
	r := runExp(t, "ablation-empirical", 1)
	// On normal load the rule's interval covers ~95% of the truth; on
	// long-tailed load it covers less.
	assertMetric(t, r, "s0_rule_cov", 0.93, 0.97)
	s0, _ := r.Metric("s0_rule_cov")
	s1, _ := r.Metric("s1_rule_cov")
	if s1 >= s0 {
		t.Errorf("long-tailed coverage %g should fall below normal %g", s1, s0)
	}
	speedup, _ := r.Metric("rule_speedup")
	if speedup < 100 {
		t.Errorf("closed-form speedup %gx implausibly small", speedup)
	}
}

func TestAblationPartitionShape(t *testing.T) {
	r := runExp(t, "ablation-partition", 1)
	s120, _ := r.Metric("speedup_n120")
	s800, _ := r.Metric("speedup_n800")
	if s120 < 1.05 {
		t.Errorf("small-N speedup %g should be material", s120)
	}
	if s800 >= s120 {
		t.Errorf("speedup should shrink with N: %g at 800 vs %g at 120", s800, s120)
	}
	if s800 < 0.99 {
		t.Errorf("time balancing should never lose: %g", s800)
	}
}

func TestDedicatedShape(t *testing.T) {
	r := runExp(t, "dedicated", 1)
	assertMetric(t, r, "worst_err", 0, 0.02) // paper: within 2%
}

func TestAblationObjectiveShape(t *testing.T) {
	r := runExp(t, "ablation-objective", 1)
	meanA, _ := r.Metric("mean_allocA")
	ubA, _ := r.Metric("upper-bound_allocA")
	p95A, _ := r.Metric("p95_allocA")
	if !(ubA > meanA && p95A > meanA) {
		t.Errorf("risk-averse objectives should favor stable machine: mean=%g ub=%g p95=%g",
			meanA, ubA, p95A)
	}
	// Each optimized allocation should win (or tie) on its own MC metric.
	meanMean, _ := r.Metric("mean_mc_mean")
	ubMean, _ := r.Metric("upper-bound_mc_mean")
	if meanMean > ubMean*1.02 {
		t.Errorf("mean-optimized MC mean %g should not lose to ub-optimized %g", meanMean, ubMean)
	}
	meanP95, _ := r.Metric("mean_mc_p95")
	ubP95, _ := r.Metric("upper-bound_mc_p95")
	if ubP95 > meanP95*1.02 {
		t.Errorf("ub-optimized MC p95 %g should not lose to mean-optimized %g", ubP95, meanP95)
	}
}

func TestFig9StableAcrossSeeds(t *testing.T) {
	// The headline Figure 9 claims must not hinge on the default seed.
	for _, seed := range []int64{2, 7, 42} {
		r := runExp(t, "fig9", seed)
		v, _ := r.Metric("captured_all")
		if v != 1 {
			t.Errorf("seed %d: not all runs captured", seed)
		}
		me, _ := r.Metric("max_mean_err")
		if me > 0.2 {
			t.Errorf("seed %d: max mean err %g", seed, me)
		}
	}
}

// TestPaperClaimsAcrossSeeds: the paper's claims that hold beyond seed 1
// hold at every seed 1–10. On the bursty Platform 2 (Figures 12–17) the
// intervals capture 80–100 % of the runs and the interval's max error stays
// below the point value's; Table 1's two machines keep their spread order.
// The ~14 % max interval error is not among them: it reproduces only in
// spread (EXPERIMENTS.md, "The paper's claims at seeds 1–10").
func TestPaperClaimsAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, id := range []string{"fig12-13", "fig14-15", "fig16-17"} {
			r := runExp(t, id, seed)
			capture, _ := r.Metric("capture_frac")
			interval, _ := r.Metric("max_interval_err")
			point, _ := r.Metric("max_mean_err")
			t.Logf("seed %d %s: capture %.3f, max interval err %.3f, max point err %.3f", seed, id, capture, interval, point)
			if capture < 0.80 || capture > 1 {
				t.Errorf("seed %d %s: capture %g outside [0.80, 1]", seed, id, capture)
			}
			if interval >= point {
				t.Errorf("seed %d %s: max interval error %g not below max point error %g", seed, id, interval, point)
			}
		}
		r := runExp(t, "table1", seed)
		a, _ := r.Metric("relSpreadA")
		b, _ := r.Metric("relSpreadB")
		t.Logf("seed %d table1: relSpreadA %.4f, relSpreadB %.4f", seed, a, b)
		if a >= b {
			t.Errorf("seed %d table1: relative spread A %g not below B %g", seed, a, b)
		}
	}
}

func TestAblationSelfSchedShape(t *testing.T) {
	r := runExp(t, "ablation-selfsched", 1)
	moderate, _ := r.Metric("self-sched_chunk5")
	static, _ := r.Metric("static_mean-balanced")
	oneShot, _ := r.Metric("self-sched_chunk120")
	if moderate >= static {
		t.Errorf("moderate self-sched %g should beat static %g", moderate, static)
	}
	if oneShot <= static {
		t.Errorf("one-shot self-sched %g should lose to static %g (no adaptivity, same commitment)", oneShot, static)
	}
}

func TestHostTCPShape(t *testing.T) {
	if testing.Short() {
		t.Skip("real-hardware timing experiment")
	}
	r := runExp(t, "host-tcp", 1)
	// Wall-clock behaviour varies with host load (these tests themselves
	// run in parallel with it): assert only order-of-magnitude sanity.
	assertMetric(t, r, "bm_ns", 0.1, 1000)
	assertMetric(t, r, "comp_ratio", 0.05, 20)
	assertMetric(t, r, "capture_frac", 0, 1)
	assertMetric(t, r, "spread_rel", 0, 10)
}

func TestHostBenchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("real-hardware timing experiment")
	}
	r := runExp(t, "host-bench", 1)
	assertMetric(t, r, "mean_ms", 0.001, 10000)
	assertMetric(t, r, "rel_spread", 0, 5)
	assertMetric(t, r, "coverage2s", 0.5, 1) // shape only: host noise varies
}

func TestFig9Shape(t *testing.T) {
	r := runExp(t, "fig9", 1)
	assertMetric(t, r, "captured_all", 1, 1)    // paper: 0% interval discrepancy
	assertMetric(t, r, "max_mean_err", 0, 0.15) // paper: 9.7%
}
