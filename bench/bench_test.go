package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// scaled returns a copy of a workload small enough for a unit test: short
// monitor histories and at most 64 tenants (fleet-ops still fills its
// 32-item batches from the 32 tenants each connection owns).
func scaled(w workload) *workload {
	w.warmup = 60
	w.tenants = min(w.tenants, 2*fleetBatch)
	w.epochRounds = min(w.epochRounds, 16)
	return &w
}

// describe renders ops compactly, so two generations can be compared.
func describe(ops []op) string {
	s := ""
	for _, o := range ops {
		s += fmt.Sprintf("%s/%d/%d/%v", opNames[o.kind], o.tenant, o.shape, o.levels)
		for _, it := range o.items {
			s += fmt.Sprintf("[%d,%d,%v]", it.tenant, it.shape, it.levels)
		}
		for _, j := range o.jobs {
			s += fmt.Sprintf("{%d,%d}", j.N, j.Iterations)
		}
		s += ";"
	}
	return s
}

func TestScriptsArePureFunctionsOfWorkloadAndSeed(t *testing.T) {
	gen := func(w *workload, seed int64) string {
		var b strings.Builder
		for c := 0; c < conns; c++ {
			g := newConnGen(w, seed, c)
			b.WriteString(describe(primingOps(g)))
			for k := 0; k < 40; k++ {
				b.WriteString(describe(w.round(g)))
			}
		}
		if w.leader != nil {
			for e := 0; e < 6; e++ {
				b.WriteString(describe(w.leader(e)))
			}
		}
		return b.String()
	}
	for i := range workloads {
		w := &workloads[i]
		if gen(w, 1) != gen(w, 1) {
			t.Errorf("%s: two generations with seed 1 differ", w.name)
		}
		if w.name != "quantile-shapes" && gen(w, 1) == gen(w, 2) {
			// quantile-shapes asks every shape of every tenant in a fixed
			// order; its seed moves the fleet's load traces, not the calls.
			t.Errorf("%s: seeds 1 and 2 generate the same script", w.name)
		}
	}
	a := marshalSpecs(fleetSpecs(smallFleet, 1, smallFleetWarmup))
	if string(a) != string(marshalSpecs(fleetSpecs(smallFleet, 1, smallFleetWarmup))) {
		t.Error("fleet generation is not deterministic")
	}
	if string(a) == string(marshalSpecs(fleetSpecs(smallFleet, 2, smallFleetWarmup))) {
		t.Error("fleet seeds 1 and 2 generate the same fleet")
	}
}

// A sensor sample of exactly 0 can become a forecast of 0, on which the
// daemon refuses to predict: no fleet may contain one, however long it runs.
func TestFleetLoadsNeverReadZero(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		// 24 tenants cover every archetype and every scenario of the cycle
		// more than twice; 20000 virtual s is seven times what tick-storm
		// reaches on the reference box.
		specs := marshalSpecs(fleetSpecs(24, seed, smallFleetWarmup))
		lowest, err := minCPUAvailability(specs, 20000)
		if err != nil {
			t.Fatal(err)
		}
		if lowest < 0.02 {
			t.Errorf("fleet seed %d: a machine's availability falls to %g", seed, lowest)
		}
	}
}

// inProcess runs a scaled workload against the api handler in this process:
// priming, a phase, snapshot/restore with the ID-continuity probes, another
// phase. It returns the response digest and the merged statistics.
func inProcess(t *testing.T, w *workload, seed int64) (string, *phaseStats) {
	t.Helper()
	specs := marshalSpecs(fleetSpecs(w.tenants, seed, w.warmup))
	truth, err := newTruth(specs)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := newTwin(specs)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := newTwinStack(tw, depthHandler, false, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer stk.close()
	run := newScriptRun(w, seed, stk, truth)
	total, err := run.prime()
	if err != nil {
		t.Fatal(err)
	}
	for half := 0; half < 2; half++ {
		// The second half of a workload with an open-loop form is paced,
		// at a rate high enough that the schedule is never waited for.
		if half == 1 && w.rate > 0 {
			run.rate = 50000
		}
		if half == 1 {
			if _, err := run.restartChecked(); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		}
		ph, err := run.phase(0, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		total.merge(ph)
	}
	return run.digest(), total
}

func TestWorkloadsRunCleanAndRepeatExactly(t *testing.T) {
	start := time.Now()
	for i := range workloads {
		w := scaled(workloads[i])
		d1, st := inProcess(t, w, 1)
		if st.failed != 0 {
			t.Errorf("%s: %d of %d calls failed: %v", w.name, st.failed, st.attempted, st.failures)
		}
		if st.preds == 0 || st.observed == 0 {
			t.Errorf("%s: %d predictions, %d observes: the script did not exercise the loop", w.name, st.preds, st.observed)
		}
		d2, st2 := inProcess(t, w, 1)
		if d1 != d2 {
			t.Errorf("%s: two runs with seed 1 served different bytes (%s vs %s)", w.name, d1, d2)
		}
		if st.preds != st2.preds || st.captured != st2.captured || st.attempted != st2.attempted {
			t.Errorf("%s: counts differ between two runs with seed 1", w.name)
		}
		if d3, _ := inProcess(t, w, 2); d3 == d1 {
			t.Errorf("%s: seeds 1 and 2 served the same bytes", w.name)
		}
	}
	// About 5s plain; the allowance is for the race detector's slowdown.
	if d := time.Since(start); d > 60*time.Second {
		t.Errorf("the scaled workloads took %v; the smoke is meant to take seconds", d)
	}
}

func TestTraceSpansNest(t *testing.T) {
	for _, name := range []string{"quantile-shapes", "fleet-ops"} {
		w0, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		w := scaled(*w0)
		specs := marshalSpecs(fleetSpecs(w.tenants, 1, w.warmup))
		truth, err := newTruth(specs)
		if err != nil {
			t.Fatal(err)
		}
		env := &runEnv{w: w, seed: 1, specs: specs, truth: truth}
		base, err := env.primedTwin()
		if err != nil {
			t.Fatal(err)
		}
		origin := time.Now()
		loop, err := env.replay(base, depthLoopback, 0, 1, true, origin)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := env.replay(base, depthDirect, 0, 1, true, origin)
		if err != nil {
			t.Fatal(err)
		}
		if len(loop.stats.ops) == 0 || len(loop.stats.ops) != len(direct.stats.ops) || len(loop.spans) != len(loop.stats.ops) {
			t.Fatalf("%s: %d loopback calls, %d predict-depth calls, %d api spans", name, len(loop.stats.ops), len(direct.stats.ops), len(loop.spans))
		}
		spans := buildSpans(loop, direct)
		byReq := map[int]map[string]span{}
		for _, s := range spans {
			if s.SelfUS < 0 || s.End < s.Start {
				t.Errorf("%s: span %+v has negative extent or self time", name, s)
			}
			if byReq[s.Req] == nil {
				byReq[s.Req] = map[string]span{}
			}
			byReq[s.Req][s.Name] = s
		}
		for req, m := range byReq {
			for _, s := range m {
				if s.Parent == "" {
					continue
				}
				p, ok := m[s.Parent]
				if !ok || s.Start < p.Start || s.End > p.End {
					t.Errorf("%s: request %d: span %s [%g, %g] is not inside its parent %s [%g, %g]", name, req, s.Name, s.Start, s.End, s.Parent, p.Start, p.End)
				}
			}
		}
	}
}

// TestBenchmarkFileNamesTheSameMetrics holds BENCHMARK.json and the harness
// together: the driver refuses a run whose metric names differ from the file.
func TestBenchmarkFileNamesTheSameMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/: ", err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: file %q, harness %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: file %s [%s], harness %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: file %s [%s], harness %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// A failure that is the machine's is tried again on a fresh daemon; one that
// is the daemon's is reported at once; and the tries are bounded.
func TestRetryingRepeatsOnlyTheMachinesFailures(t *testing.T) {
	e := &runEnv{ctx: context.Background(), w: &workloads[0]}
	var tags []string
	err := e.retrying("sub0", func(tag string) error {
		tags = append(tags, tag)
		if len(tags) < 2 {
			return errors.New("connection reset by peer")
		}
		return nil
	})
	if err != nil || fmt.Sprint(tags) != "[sub0 sub0-try2]" {
		t.Errorf("one reset connection: err %v after tries %v, want success on the second", err, tags)
	}
	tags = nil
	err = e.retrying("sub0", func(tag string) error {
		tags = append(tags, tag)
		return wrongAnswer{errors.New("restore broke the ID sequence")}
	})
	if err == nil || len(tags) != 1 {
		t.Errorf("a wrong answer: err %v after %d tries, want the error after one", err, len(tags))
	}
	tags = nil
	err = e.retrying("sub0", func(tag string) error {
		tags = append(tags, tag)
		return errors.New("no answer")
	})
	if err == nil || len(tags) != daemonTries {
		t.Errorf("a machine that never answers: err %v after %d tries, want the error after %d", err, len(tags), daemonTries)
	}
}

func TestParseMetricsText(t *testing.T) {
	m, err := parseMetricsText("# HELP a_total help text\n# TYPE a_total counter\na_total{platform=\"x\",code=\"200\"} 3\na_total{platform=\"y\",code=\"404\"} 2\nup 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.sum("a_total"); got != 5 {
		t.Errorf("sum(a_total) = %g, want 5", got)
	}
	if got := m.sum("a_total", `code="200"`); got != 3 {
		t.Errorf("sum(a_total, code=200) = %g, want 3", got)
	}
	if got := m.sum("up"); got != 1 {
		t.Errorf("sum(up) = %g, want 1", got)
	}
	for _, bad := range []string{"", "a_total{x=\"1\" 3\n", "a_total\n", "a_total nope\n", "# WHAT is this\n"} {
		if _, err := parseMetricsText(bad); err == nil {
			t.Errorf("parseMetricsText(%q) accepted a malformed exposition", bad)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := func(a, b []float64, bound float64) string {
		ma, mb := median(a), median(b)
		return verdict(a, b, (mb-ma)/ma, max(iqr(a), iqr(b))/ma, "lower", bound)
	}
	cases := []struct {
		a, b  []float64
		bound float64
		want  string
	}{
		{[]float64{10, 10.1, 9.9}, []float64{10.2, 10.1, 10.3}, 0.10, "within-bound"},
		{[]float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, 0.10, "worse"},
		{[]float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, 0.10, "better"},
		{[]float64{10, 13, 7}, []float64{10.5, 13.5, 7.5}, 0.10, "unresolved"},
		{[]float64{10, 13, 11.5}, []float64{5, 6, 7}, 0.10, "better (every run)"},
	}
	for _, c := range cases {
		if got := lower(c.a, c.b, c.bound); got != c.want {
			t.Errorf("verdict(%v -> %v, bound %g) = %q, want %q", c.a, c.b, c.bound, got, c.want)
		}
	}
}
