package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"prodpred/internal/api"
	"prodpred/internal/obs"
	"prodpred/internal/predict"
)

// newTestServer builds the daemon's full stack — registry, services,
// injected faults, shared metrics registry — behind an httptest server. The
// fleet is the two paper platforms at seed, 600 s of warm-up, served from a
// -specs file whose faults keys inject 30% dropout on every machine plus an
// outage window on machine 0 that the warm-up crosses, so the gap-aware path
// is exercised end to end. Both platforms are instantiated before the first
// request, as the built-in fleet is.
func newTestServer(t *testing.T, seed int64) (*httptest.Server, *predict.Registry) {
	t.Helper()
	var specs []predict.PlatformSpec
	for _, id := range []int{1, 2} {
		spec, err := predict.SimulatedSpec(id, seed)
		if err != nil {
			t.Fatal(err)
		}
		spec.Warmup = 600
		spec.FaultSeed = seed + int64(id)
		for m := range spec.Machines {
			spec.Faults = append(spec.Faults, predict.FaultSpec{Machine: m, Drop: 0.3})
		}
		spec.Faults[0].Outages = []predict.OutageSpec{{Start: 100, End: 250}}
		specs = append(specs, spec)
	}
	raw, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	reg, err := specRegistry(path, metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if _, err := reg.Lookup(spec.Name); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(api.NewHandler(reg, api.Options{Metrics: metrics}))
	t.Cleanup(ts.Close)
	return ts, reg
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPredictEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, 4)
	resp := postJSON(t, ts.URL+"/predict", api.PredictRequest{
		Platform: "platform2", N: 120, Iterations: 6,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	pr := decode[api.PredictResponse](t, resp)
	if pr.Platform != "platform2" {
		t.Errorf("platform=%q", pr.Platform)
	}
	if pr.Time != 600 {
		t.Errorf("time=%g, want warmup 600", pr.Time)
	}
	if pr.Mean <= 0 || pr.Spread <= 0 {
		t.Errorf("prediction %g ± %g not a production interval", pr.Mean, pr.Spread)
	}
	if !(pr.Lo < pr.Mean && pr.Mean < pr.Hi) {
		t.Errorf("interval [%g,%g] does not bracket mean %g", pr.Lo, pr.Hi, pr.Mean)
	}
	// A prediction's per-machine reports are GET /report at its time.
	rep := getReport(t, ts.URL, pr.Platform, pr.Time)
	if len(pr.PartitionRows) != 4 || len(rep.Loads) != 4 {
		t.Errorf("partition=%v loads=%d", pr.PartitionRows, len(rep.Loads))
	}
	rows := 0
	for _, r := range pr.PartitionRows {
		rows += r
	}
	if rows != 120-2 {
		t.Errorf("partition rows sum=%d, want %d interior rows", rows, 118)
	}
	// Injected sensor faults must surface in the per-machine diagnostics.
	dropped, outage := 0, 0
	for _, l := range rep.Loads {
		dropped += l.Gaps.Dropped
		outage += l.Gaps.Outage
	}
	if dropped == 0 {
		t.Error("30% dropout injected but no drops reported")
	}
	if outage == 0 {
		t.Error("outage window injected but no outage misses reported")
	}
	if pr.BWMean <= 0 || pr.BWMean > 1 {
		t.Errorf("bandwidth fraction=%g", pr.BWMean)
	}
}

func TestPredictEndpointOptions(t *testing.T) {
	ts, _ := newTestServer(t, 4)
	for _, body := range []api.PredictRequest{
		{Platform: "platform1", N: 80, Iterations: 4, Strategy: "conservative"},
		{Platform: "platform2", N: 80, Iterations: 4, Strategy: "balanced", MaxStrategy: "probabilistic", IterationRel: "unrelated"},
		{Platform: "platform2", N: 80, Iterations: 4, Strategy: "optimistic", MaxStrategy: "magnitude"},
	} {
		resp := postJSON(t, ts.URL+"/predict", body)
		pr := decode[api.PredictResponse](t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status=%d", body, resp.StatusCode)
		}
		if pr.Mean <= 0 {
			t.Errorf("%+v: mean=%g", body, pr.Mean)
		}
	}
}

func TestPredictEndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t, 4)
	resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status=%d", resp.StatusCode)
	}
	cases := []struct {
		body api.PredictRequest
		want int
	}{
		{api.PredictRequest{Platform: "atlantis", N: 80, Iterations: 4}, http.StatusNotFound},
		{api.PredictRequest{Platform: "platform2", N: 2, Iterations: 4}, http.StatusBadRequest},
		{api.PredictRequest{Platform: "platform2", N: 80, Iterations: 0}, http.StatusBadRequest},
		{api.PredictRequest{Platform: "platform2", N: 80, Iterations: 4, Strategy: "vibes"}, http.StatusBadRequest},
		{api.PredictRequest{N: 80, Iterations: 4}, http.StatusNotFound}, // ambiguous: two platforms hosted
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/predict", c.body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%+v: status=%d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
}

func TestHealthzReportsFaultClasses(t *testing.T) {
	ts, _ := newTestServer(t, 4)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	h := decode[api.HealthResponse](t, resp)
	if h.Status != "ok" && h.Status != "degraded" {
		t.Errorf("status=%q", h.Status)
	}
	if len(h.Platforms) != 2 {
		t.Fatalf("platforms=%d", len(h.Platforms))
	}
	for _, p := range h.Platforms {
		if len(p.Machines) != 4 {
			t.Errorf("%s: machines=%d", p.Platform, len(p.Machines))
		}
		dropped, outage, clean := 0, 0, 0
		for _, m := range p.Machines {
			dropped += m.Gaps.Dropped
			outage += m.Gaps.Outage
			clean += m.Gaps.Clean
		}
		if dropped == 0 || clean == 0 {
			t.Errorf("%s: per-fault-class counters empty: dropped=%d clean=%d",
				p.Platform, dropped, clean)
		}
		if p.Machines[0].Gaps.Outage == 0 {
			t.Errorf("%s: machine 0 outage window not counted", p.Platform)
		}
		if outage != p.Machines[0].Gaps.Outage {
			t.Errorf("%s: outage on unscheduled machines", p.Platform)
		}
	}
}

func TestReportAndAdvanceEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, 4)
	resp, err := http.Get(ts.URL + "/report?platform=platform1")
	if err != nil {
		t.Fatal(err)
	}
	rep := decode[api.ReportResponse](t, resp)
	if rep.Platform != "platform1" || rep.Time != 600 || len(rep.Loads) != 4 {
		t.Errorf("report=%+v", rep)
	}
	for _, l := range rep.Loads {
		if l.Mean <= 0 {
			t.Errorf("machine %d report mean=%g", l.Machine, l.Mean)
		}
	}
	adv := postJSON(t, ts.URL+"/advance", api.AdvanceRequest{Platform: "platform1", Seconds: 60})
	times := decode[map[string]float64](t, adv)
	if times["platform1"] != 660 {
		t.Errorf("advance result=%v", times)
	}
	// Platform 2 was not advanced.
	resp2, err := http.Get(ts.URL + "/report?platform=platform2")
	if err != nil {
		t.Fatal(err)
	}
	if rep2 := decode[api.ReportResponse](t, resp2); rep2.Time != 600 {
		t.Errorf("platform2 time=%g, want 600", rep2.Time)
	}
	bad := postJSON(t, ts.URL+"/advance", api.AdvanceRequest{Platform: "platform1", Seconds: -5})
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("negative advance status=%d", bad.StatusCode)
	}
}

// TestServingDeterminism: two daemons with the same seed and fault specs
// serve bit-identical predictions — the serving layer preserves the
// pipeline's same-seed determinism even under injected faults.
func TestServingDeterminism(t *testing.T) {
	ts1, _ := newTestServer(t, 7)
	ts2, _ := newTestServer(t, 7)
	body := api.PredictRequest{Platform: "platform2", N: 100, Iterations: 5}
	p1 := decode[api.PredictResponse](t, postJSON(t, ts1.URL+"/predict", body))
	p2 := decode[api.PredictResponse](t, postJSON(t, ts2.URL+"/predict", body))
	if p1.Mean != p2.Mean || p1.Spread != p2.Spread {
		t.Errorf("same-seed daemons diverged: %g±%g vs %g±%g",
			p1.Mean, p1.Spread, p2.Mean, p2.Spread)
	}
	r1 := getReport(t, ts1.URL, p1.Platform, p1.Time)
	r2 := getReport(t, ts2.URL, p2.Platform, p2.Time)
	if fmt.Sprintf("%+v", r1.Loads) != fmt.Sprintf("%+v", r2.Loads) {
		t.Error("same-seed daemons report different load diagnostics")
	}
}

// getReport fetches GET /report for platform and requires it to be the
// report of virtual time at.
func getReport(t *testing.T, url, platform string, at float64) api.ReportResponse {
	t.Helper()
	resp, err := http.Get(url + "/report?platform=" + platform)
	if err != nil {
		t.Fatal(err)
	}
	rep := decode[api.ReportResponse](t, resp)
	if rep.Time != at {
		t.Fatalf("%s: report of time %g, want %g", platform, rep.Time, at)
	}
	return rep
}

// TestOperationsFlagTable: the flag tables under OPERATIONS.md's "Starting
// the daemon" list exactly the flags predictd declares, so a deleted flag
// does not live on in the runbook and a new one cannot go undocumented.
func TestOperationsFlagTable(t *testing.T) {
	raw, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Starting the daemon\n")
	if !ok {
		t.Fatal(`OPERATIONS.md has no "## Starting the daemon" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	flagName := regexp.MustCompile("`-([a-z-]+)`")
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		cell, _, _ := strings.Cut(line[1:], "|")
		for _, m := range flagName.FindAllStringSubmatch(cell, -1) {
			documented[m[1]] = true
		}
	}
	fs := flag.NewFlagSet("predictd", flag.ContinueOnError)
	declareFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			t.Errorf("predictd's -%s is missing from OPERATIONS.md's flag table", f.Name)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("OPERATIONS.md's flag table documents -%s, which predictd does not declare", name)
	}
}

// TestObserveAndAccuracyEndpoints closes the prediction loop over the
// wire: predict, observe the measured runtime against the returned id
// (acknowledged with the id it consumed), and read the accuracy state back
// through /accuracy, its one surface.
func TestObserveAndAccuracyEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, 4)
	pr := decode[api.PredictResponse](t, postJSON(t, ts.URL+"/predict", api.PredictRequest{
		Platform: "platform1", N: 100, Iterations: 5,
	}))
	if pr.ID == 0 {
		t.Fatal("prediction carries no id")
	}
	if pr.CalibrationScale != 1 || pr.RawSpread != pr.Spread {
		t.Errorf("fresh daemon should serve uncalibrated intervals: scale=%g raw=%g spread=%g",
			pr.CalibrationScale, pr.RawSpread, pr.Spread)
	}

	resp := postJSON(t, ts.URL+"/observe", api.ObserveRequest{
		Platform: "platform1", ID: pr.ID, Actual: pr.Mean,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe status=%d", resp.StatusCode)
	}
	or := decode[api.ObserveResponse](t, resp)
	if or.Platform != "platform1" || or.ID != pr.ID || or.Drifted {
		t.Errorf("observe response=%+v, want platform1's id %d, no drift", or, pr.ID)
	}

	resp2, err := http.Get(ts.URL + "/accuracy")
	if err != nil {
		t.Fatal(err)
	}
	acc := decode[api.AccuracyResponse](t, resp2)
	if len(acc.Platforms) != 2 {
		t.Fatalf("accuracy platforms=%d", len(acc.Platforms))
	}
	for _, p := range acc.Platforms {
		want := 0
		if p.Platform == "platform1" {
			want = 1
		}
		if p.Accuracy.Observed != want || p.Outstanding != 0 {
			t.Errorf("%s: observed=%d outstanding=%d, want %d observed",
				p.Platform, p.Accuracy.Observed, p.Outstanding, want)
		}
		if p.Accuracy.Target != 0.95 || p.Accuracy.Scale != 1 {
			t.Errorf("%s: target=%g scale=%g", p.Platform, p.Accuracy.Target, p.Accuracy.Scale)
		}
	}
	resp3, err := http.Get(ts.URL + "/accuracy?platform=platform1")
	if err != nil {
		t.Fatal(err)
	}
	one := decode[api.AccuracyResponse](t, resp3)
	if len(one.Platforms) != 1 || one.Platforms[0].Platform != "platform1" {
		t.Fatalf("filtered accuracy=%+v", one)
	}
	if p := one.Platforms[0]; p.Accuracy.Observed != 1 || p.Accuracy.RawCapture != 1 || p.Outstanding != 0 {
		t.Errorf("platform1 accuracy=%+v outstanding=%d, want the one captured outcome", p.Accuracy, p.Outstanding)
	}

	resp4, err := http.Get(ts.URL + "/report?platform=platform1")
	if err != nil {
		t.Fatal(err)
	}
	rep := decode[api.ReportResponse](t, resp4)
	for _, l := range rep.Loads {
		if l.Widening < 1 {
			t.Errorf("machine %d widening=%g", l.Machine, l.Widening)
		}
	}
}

func TestObserveEndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t, 4)
	pr := decode[api.PredictResponse](t, postJSON(t, ts.URL+"/predict", api.PredictRequest{
		Platform: "platform1", N: 100, Iterations: 5,
	}))
	cases := []struct {
		name string
		body api.ObserveRequest
		want int
	}{
		{"unknown platform", api.ObserveRequest{Platform: "atlantis", ID: pr.ID, Actual: 1}, http.StatusNotFound},
		{"never-issued id", api.ObserveRequest{Platform: "platform1", ID: 999, Actual: 1}, http.StatusBadRequest},
		{"non-positive actual", api.ObserveRequest{Platform: "platform1", ID: pr.ID, Actual: 0}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/observe", c.body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status=%d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	resp, err := http.Post(ts.URL+"/observe", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status=%d", resp.StatusCode)
	}
	// First observe consumes the id; a second must fail.
	ok := postJSON(t, ts.URL+"/observe", api.ObserveRequest{Platform: "platform1", ID: pr.ID, Actual: pr.Mean})
	ok.Body.Close()
	dup := postJSON(t, ts.URL+"/observe", api.ObserveRequest{Platform: "platform1", ID: pr.ID, Actual: pr.Mean})
	dup.Body.Close()
	if ok.StatusCode != http.StatusOK || dup.StatusCode != http.StatusBadRequest {
		t.Errorf("observe=%d re-observe=%d", ok.StatusCode, dup.StatusCode)
	}
}

// TestMetricsEndpoint: the daemon's GET /metrics serves the shared
// registry — pipeline families for both hosted platforms alongside the
// HTTP families, in parseable exposition form.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, 4)
	pr := postJSON(t, ts.URL+"/predict", api.PredictRequest{Platform: "platform2", N: 80, Iterations: 4})
	pr.Body.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	fams, samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("daemon exposition does not parse: %v", err)
	}
	if len(fams) < 12 || samples == 0 {
		t.Errorf("daemon exposes %d families / %d samples, want >= 12 / > 0", len(fams), samples)
	}
	for _, name := range []string{"predict_predictions_total", "http_requests_total", "predictd_uptime_seconds"} {
		if _, ok := fams[name]; !ok {
			t.Errorf("daemon exposition missing %q", name)
		}
	}
}

// TestGracefulShutdown drives the real serve loop (not httptest): bind an
// ephemeral port, answer a request, cancel the context, and require a
// clean drain — the path main exercises on SIGINT.
func TestGracefulShutdown(t *testing.T) {
	reg, err := builtinRegistry(nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serve(ctx, reg, ln, 5, api.NewHandler(reg, api.Options{})) }()
	url := "http://" + ln.Addr().String()

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("server not serving before shutdown: %v", err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve returned %v after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not stop after context cancellation")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}
