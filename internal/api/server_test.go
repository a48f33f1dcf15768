package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prodpred/internal/calib"
	"prodpred/internal/fleetsched"
	"prodpred/internal/obs"
	"prodpred/internal/predict"
)

// newStack builds both simulated platforms on a shared metrics registry
// behind an httptest server, mirroring the daemon's wiring.
func newStack(t *testing.T, opts Options) (*httptest.Server, *predict.Registry, *obs.Registry) {
	t.Helper()
	metrics := obs.NewRegistry()
	opts.Metrics = metrics
	reg := predict.NewRegistryWith(predict.RegistryOptions{Metrics: metrics})
	for _, id := range []int{1, 2} {
		spec, err := predict.SimulatedSpec(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		spec.Warmup = 300
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Lookup(spec.Name); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewHandler(reg, opts))
	t.Cleanup(ts.Close)
	return ts, reg, metrics
}

// TestMethodNotAllowed: a wrong-method hit on a registered path must be
// 405, not 404 — operators probing with the wrong verb should learn the
// path exists.
func TestMethodNotAllowed(t *testing.T) {
	ts, _, _ := newStack(t, Options{})
	cases := []struct {
		method, path string
	}{
		{"POST", "/healthz"},
		{"GET", "/predict"},
		{"DELETE", "/report"},
		{"PUT", "/metrics"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status=%d, want 405", c.method, c.path, resp.StatusCode)
		}
	}
	// An unregistered path stays 404.
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope: status=%d, want 404", resp.StatusCode)
	}
}

// TestContextCancellation: /report and /healthz must stop writing once the
// client is gone — a cancelled request context yields no response body.
func TestContextCancellation(t *testing.T) {
	_, reg, _ := newStack(t, Options{})
	s := &server{reg: reg}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, call := range map[string]func(http.ResponseWriter, *http.Request){
		"GET /report?platform=platform1": s.handleReport,
		"GET /healthz":                   s.handleHealthz,
	} {
		path := strings.TrimPrefix(name, "GET ")
		rec := httptest.NewRecorder()
		call(rec, httptest.NewRequest("GET", path, nil).WithContext(ctx))
		if rec.Body.Len() != 0 {
			t.Errorf("%s: wrote %d bytes for a cancelled request", name, rec.Body.Len())
		}
	}
	// Sanity: a live context still gets a full response.
	rec := httptest.NewRecorder()
	s.handleReport(rec, httptest.NewRequest("GET", "/report?platform=platform1", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Errorf("live report: status=%d bytes=%d", rec.Code, rec.Body.Len())
	}
}

// TestMetricsCatalog drives the full loop over HTTP and requires the
// exposition to carry the whole documented catalog: every pipeline family,
// the HTTP families, and uptime — at least 12 distinct names.
func TestMetricsCatalog(t *testing.T) {
	ts, _, metrics := newStack(t, Options{})
	body, _ := json.Marshal(PredictRequest{Platform: "platform1", N: 80, Iterations: 4})
	resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	obody, _ := json.Marshal(ObserveRequest{Platform: "platform1", ID: pr.ID, Actual: pr.Mean})
	if resp, err = http.Post(ts.URL+"/observe", "application/json", bytes.NewReader(obody)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	scrape, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer scrape.Body.Close()
	if ct := scrape.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type=%q", ct)
	}
	fams, samples, err := obs.ParseText(scrape.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if len(fams) < 12 {
		t.Errorf("exposition has %d families, want >= 12: %v", len(fams), fams)
	}
	if samples == 0 {
		t.Error("exposition carries no samples")
	}
	want := []string{
		predict.MetricPredictions, predict.MetricPredictionErrors,
		predict.MetricObservations, predict.MetricDriftEvents,
		predict.MetricFaultGapSamples, predict.MetricCalibrationScale,
		predict.MetricOutstanding, predict.MetricVirtualTime,
		predict.MetricStageDuration, predict.MetricFleetAdvance,
		obs.MetricHTTPRequests, obs.MetricHTTPDuration, obs.MetricHTTPInFlight,
		MetricUptime,
	}
	for _, name := range want {
		if _, ok := fams[name]; !ok {
			t.Errorf("exposition missing family %q", name)
		}
	}
	// Spot-check series-level state: one prediction and one observation on
	// platform1, and every pipeline stage timed.
	var sb strings.Builder
	if err := metrics.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, line := range []string{
		predict.MetricPredictions + `{platform="platform1"} 1`,
		predict.MetricObservations + `{platform="platform1"} 1`,
		predict.MetricPredictions + `{platform="platform2"} 0`,
	} {
		if !strings.Contains(text, line) {
			t.Errorf("exposition missing %q", line)
		}
	}
	for _, stage := range predict.Stages {
		if !strings.Contains(text, `stage="`+stage+`"`) {
			t.Errorf("exposition missing stage series %q", stage)
		}
	}
}

// TestPprofOptIn: /debug/pprof/ is absent by default and served when
// enabled.
func TestPprofOptIn(t *testing.T) {
	off, _, _ := newStack(t, Options{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status=%d, want 404", resp.StatusCode)
	}
	on, _, _ := newStack(t, Options{EnablePprof: true})
	if resp, err = http.Get(on.URL + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status=%d, want 200", resp.StatusCode)
	}
}

// TestAccessLogPlatformFromBody: the access log must carry the platform
// from a POST body without consuming it — the handler still decodes the
// request.
func TestAccessLogPlatformFromBody(t *testing.T) {
	var logBuf strings.Builder
	ts, _, _ := newStack(t, Options{AccessLog: log.New(&logBuf, "", 0)})
	body, _ := json.Marshal(PredictRequest{Platform: "platform2", N: 80, Iterations: 4})
	resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status=%d (body peek broke the handler?)", resp.StatusCode)
	}
	line := strings.TrimSpace(logBuf.String())
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("access log is not JSON: %v\n%s", err, line)
	}
	if entry["platform"] != "platform2" || entry["route"] != "POST /predict" {
		t.Errorf("log entry=%v", entry)
	}
}

// TestRoutesHaveHandlers: the route table and handler map stay in sync —
// NewHandler panics otherwise, so constructing it is the assertion.
func TestRoutesHaveHandlers(t *testing.T) {
	if len(Routes) != 11 {
		t.Errorf("route table has %d entries, want 11", len(Routes))
	}
	for _, rt := range Routes {
		parts := strings.SplitN(rt.Pattern, " ", 2)
		if len(parts) != 2 || rt.Summary == "" {
			t.Errorf("malformed route %+v", rt)
		}
	}
}

// TestBatchPredict drives POST /predict/batch end to end: mixed platforms
// in one call, positional results, per-item errors that do not fail the
// batch, and predictions that remain observable afterwards.
func TestBatchPredict(t *testing.T) {
	ts, _, _ := newStack(t, Options{})
	body, _ := json.Marshal(BatchPredictRequest{Requests: []PredictRequest{
		{Platform: "platform1", N: 100, Iterations: 4},
		{Platform: "platform2", N: 100, Iterations: 4},
		{Platform: "nope", N: 100, Iterations: 4},
		{Platform: "platform1", N: 100, Iterations: 4},                    // same shape: cache hit
		{Platform: "platform1", N: 0, Iterations: 4},                      // invalid: n must be positive
		{Platform: "platform2", N: 100, Iterations: 4, Strategy: "bogus"}, // fails translation
		{Platform: "platform2", N: 100, Iterations: 4},
	}})
	resp, err := http.Post(ts.URL+"/predict/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var br BatchPredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Responses) != 7 {
		t.Fatalf("got %d responses, want 7", len(br.Responses))
	}
	if br.Errors != 3 {
		t.Errorf("Errors=%d, want 3", br.Errors)
	}
	platforms := []string{"platform1", "platform2", "", "platform1", "", "", "platform2"}
	for i, ok := range []bool{true, true, false, true, false, false, true} {
		item := br.Responses[i]
		if ok && (item.PredictResponse == nil || item.Error != "" || item.ID == 0 || item.Platform != platforms[i]) {
			t.Errorf("item %d: want a prediction for %s, got %+v", i, platforms[i], item)
		}
		if !ok && (item.Error == "" || item.PredictResponse != nil) {
			t.Errorf("item %d: want an error, got %+v", i, item)
		}
	}
	// Same tick + same shape must yield the same interval with a fresh ID.
	a, b := br.Responses[0], br.Responses[3]
	if a.ID == b.ID {
		t.Error("cache hit reused a ledger ID")
	}
	if a.Mean != b.Mean || a.Spread != b.Spread || a.Time != b.Time {
		t.Errorf("same-tick same-shape predictions diverged: %+v vs %+v", a, b)
	}
	// The batch-issued prediction closes the loop like a single one.
	obody, _ := json.Marshal(ObserveRequest{Platform: "platform1", ID: a.ID, Actual: a.Mean})
	oresp, err := http.Post(ts.URL+"/observe", "application/json", bytes.NewReader(obody))
	if err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close()
	if oresp.StatusCode != http.StatusOK {
		t.Errorf("observe on batch prediction: status %d", oresp.StatusCode)
	}
}

// TestBatchPredictRejections: malformed shapes that must 400 — an empty
// batch, an oversized one, and an item carrying advance, a key no predict
// body has (the clock steps only on POST /advance, so a batch stays
// tick-coherent).
func TestBatchPredictRejections(t *testing.T) {
	ts, _, _ := newStack(t, Options{})
	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/predict/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post([]byte(`{"requests":[]}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	big := BatchPredictRequest{Requests: make([]PredictRequest, MaxBatchSize+1)}
	for i := range big.Requests {
		big.Requests[i] = PredictRequest{Platform: "platform1", N: 10, Iterations: 1}
	}
	bigBody, _ := json.Marshal(big)
	if resp := post(bigBody); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
	resp := post([]byte(`{"requests":[{"platform":"platform1","n":10,"iterations":1,"advance":5},{"platform":"platform1","n":10,"iterations":1}]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("batch with an advance item: status %d, want 400", resp.StatusCode)
	}
}

// TestScheduleEndpoints drives POST /schedule and GET /schedule/status end
// to end: default-policy placement, per-request policy override, status
// accounting, and the input-validation 400s.
func TestScheduleEndpoints(t *testing.T) {
	ts, _, _ := newStack(t, Options{})
	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	body, _ := json.Marshal(ScheduleRequest{Jobs: []fleetsched.JobSpec{
		{Name: "a", N: 120, Iterations: 4, Deadline: 1e6},
		{Name: "b", N: 120, Iterations: 4},
	}})
	resp := post(body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: status %d, want 200", resp.StatusCode)
	}
	var sr ScheduleResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Policy != "quantile" || sr.Quantile != 0.95 {
		t.Errorf("default policy=%q q=%v, want quantile/0.95", sr.Policy, sr.Quantile)
	}
	if len(sr.Placements) != 2 || sr.Unplaced != 0 {
		t.Fatalf("placements=%d unplaced=%d, want 2/0", len(sr.Placements), sr.Unplaced)
	}
	for _, pl := range sr.Placements {
		if pl.Tenant != "platform1" && pl.Tenant != "platform2" {
			t.Errorf("placed on unknown tenant %q", pl.Tenant)
		}
		if pl.PredictedExec <= 0 {
			t.Errorf("job %d: predicted_exec=%v, want > 0", pl.JobID, pl.PredictedExec)
		}
	}

	// Per-request policy override is echoed and applied to each placement.
	body, _ = json.Marshal(ScheduleRequest{
		Jobs:   []fleetsched.JobSpec{{Name: "c", N: 120, Iterations: 4}},
		Policy: "mean",
	})
	resp = post(body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mean schedule: status %d, want 200", resp.StatusCode)
	}
	sr = ScheduleResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Policy != "mean" || len(sr.Placements) != 1 || sr.Placements[0].Policy != "mean" {
		t.Errorf("override not applied: %+v", sr)
	}

	// Status folds completions forward and reports the population.
	statusResp, err := http.Get(ts.URL + "/schedule/status")
	if err != nil {
		t.Fatal(err)
	}
	if statusResp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d, want 200", statusResp.StatusCode)
	}
	var st map[string]any
	if err := json.NewDecoder(statusResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["submitted"].(float64) != 3 {
		t.Errorf("submitted=%v, want 3", st["submitted"])
	}
	if tenants, ok := st["tenants"].([]any); !ok || len(tenants) != 2 {
		t.Errorf("tenants=%v, want 2 entries", st["tenants"])
	}

	// Validation: empty list, oversize list, bad job shape, bad policy.
	for _, bad := range []string{
		`{"jobs":[]}`,
		`{"jobs":[{"n":2,"iterations":1}]}`,
		`{"jobs":[{"n":100,"iterations":4}],"policy":"p99"}`,
		`not json`,
	} {
		if resp := post([]byte(bad)); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	big := ScheduleRequest{Jobs: make([]fleetsched.JobSpec, MaxScheduleJobs+1)}
	for i := range big.Jobs {
		big.Jobs[i] = fleetsched.JobSpec{N: 100, Iterations: 1}
	}
	bigBody, _ := json.Marshal(big)
	if resp := post(bigBody); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized schedule: status %d, want 400", resp.StatusCode)
	}
}

// TestFleetAdvanceMatchesPerTenant: POST /advance without a platform steps
// every live tenant — one Registry.AdvanceAll wave — and answers the
// JSON the per-tenant calls add up to: every live tenant, the same times.
// A cold spec is nobody's to step and appears in neither. A fleet-wide
// step can fail only on a negative dt, refused before any clock moves;
// checkAdvance refuses it first on the wire, and internal/predict pins the
// refusal itself.
func TestFleetAdvanceMatchesPerTenant(t *testing.T) {
	const live = 9
	fleet := func() http.Handler {
		reg := predict.NewRegistry()
		specs := predict.FleetSpecs(live+1, 13)
		for i, spec := range specs {
			spec.Warmup = 120 + 5*float64(i%4)
			if err := reg.RegisterSpec(spec); err != nil {
				t.Fatal(err)
			}
			if i < live {
				if _, err := reg.Lookup(spec.Name); err != nil {
					t.Fatal(err)
				}
			}
		}
		return NewHandler(reg, Options{})
	}
	whole, each := fleet(), fleet()
	for wave := 0; wave < 3; wave++ {
		rec := post(whole, "/advance", `{"seconds":5}`)
		var got map[string]float64
		if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("fleet-wide advance: status %d (%v): %s", rec.Code, err, rec.Body)
		}
		want := map[string]float64{}
		for i := 0; i < live; i++ {
			rec := post(each, "/advance", fmt.Sprintf(`{"platform":"tenant-%04d","seconds":5}`, i))
			var one map[string]float64
			if err := json.Unmarshal(rec.Body.Bytes(), &one); rec.Code != http.StatusOK || err != nil || len(one) != 1 {
				t.Fatalf("advance of tenant %d: status %d (%v): %s", i, rec.Code, err, rec.Body)
			}
			for name, now := range one {
				want[name] = now
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("wave %d: fleet-wide advance answered %v, the per-tenant calls %v", wave, got, want)
		}
	}
	if rec := post(whole, "/advance", `{"seconds":-5}`); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "seconds must be positive") {
		t.Errorf("negative fleet-wide advance: status %d: %s", rec.Code, rec.Body)
	}
}

// postOK posts body as JSON to url and decodes a 200 answer into out (when
// non-nil); any other status is an error naming the route and the answer.
func postOK(url string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, got)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(got, out)
}

// TestConcurrentTrafficAcrossKillRestore is the crash-recovery drill under
// concurrent closed-loop clients over real sockets. Workers mix single and
// batch predicts, observes, clock steps and one-job placements across a
// fleet of lazily instantiated tenants; then POST /snapshot captures the
// fleet, the server is torn down, a new one is restored from the image, and
// the same workers go on, first observing the predictions they left open
// before the cut. Every call on either server must succeed, the restored
// fleet must hold the same tenants, cold ones still cold, and each server's
// GET /schedule/status must count exactly the placements made on it.
func TestConcurrentTrafficAcrossKillRestore(t *testing.T) {
	const tenants, workers, rounds = 24, 4, 12
	open := make([][]ObserveRequest, workers) // per worker: predictions not yet observed
	phase := func(url string, seed int64) {
		var placed atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, o := range open[w] {
					if err := postOK(url+"/observe", o, nil); err != nil {
						t.Errorf("worker %d: observing a prediction left open: %v", w, err)
						return
					}
				}
				open[w] = nil
				rng := rand.New(rand.NewSource(seed*workers + int64(w)))
				for r := 0; r < rounds; r++ {
					tenant := fmt.Sprintf("tenant-%04d", rng.Intn(tenants))
					req := PredictRequest{Platform: tenant, N: 120, Iterations: 4}
					var pr PredictResponse
					if r%2 == 0 {
						if err := postOK(url+"/predict", req, &pr); err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
					} else {
						var br BatchPredictResponse
						err := postOK(url+"/predict/batch", BatchPredictRequest{Requests: []PredictRequest{req, req, req, req}}, &br)
						if err != nil || br.Errors != 0 || len(br.Responses) != 4 || br.Responses[0].PredictResponse == nil {
							t.Errorf("worker %d: batch: %v %+v", w, err, br)
							return
						}
						pr = *br.Responses[0].PredictResponse
					}
					ob := ObserveRequest{Platform: tenant, ID: pr.ID, Actual: pr.Mean}
					if r%3 == 0 {
						open[w] = append(open[w], ob)
					} else if err := postOK(url+"/observe", ob, nil); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					if r%4 == 3 {
						if err := postOK(url+"/advance", AdvanceRequest{Platform: tenant, Seconds: 5}, nil); err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
					}
					if r%3 == 1 {
						var sr ScheduleResponse
						job := fleetsched.JobSpec{Name: fmt.Sprintf("w%d-r%d", w, r), N: 120, Iterations: 4}
						if err := postOK(url+"/schedule", ScheduleRequest{Jobs: []fleetsched.JobSpec{job}}, &sr); err != nil || sr.Unplaced != 0 || len(sr.Placements) != 1 {
							t.Errorf("worker %d: schedule: %v %+v", w, err, sr)
							return
						}
						placed.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		resp, err := http.Get(url + "/schedule/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Submitted int64 `json:"submitted"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Submitted != placed.Load() {
			t.Errorf("/schedule/status counts %d submitted jobs, the workers placed %d", st.Submitted, placed.Load())
		}
	}

	reg := predict.NewRegistry()
	for _, spec := range predict.FleetSpecs(tenants, 1) {
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewHandler(reg, Options{Metrics: obs.NewRegistry()}))
	phase(ts.URL, 1)
	resp, err := http.Post(ts.URL+"/snapshot", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	image, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d, %v", resp.StatusCode, err)
	}
	ts.Close()

	back, err := predict.ReadSnapshot(bytes.NewReader(image), predict.RegistryOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Names(), reg.Names()) || len(back.Services()) != len(reg.Services()) {
		t.Fatalf("restored %d tenants, %d live; the killed server had %d, %d live",
			len(back.Names()), len(back.Services()), len(reg.Names()), len(reg.Services()))
	}
	restored := httptest.NewServer(NewHandler(back, Options{}))
	defer restored.Close()
	phase(restored.URL, 2)
}

// TestSnapshotResponseIsStreamed: POST /snapshot answers with the image
// WriteSnapshot writes, streamed as a chunked body without a Content-Length.
func TestSnapshotResponseIsStreamed(t *testing.T) {
	reg := predict.NewRegistry()
	for _, spec := range predict.FleetSpecs(8, 1) {
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"tenant-0001", "tenant-0005"} {
		if _, err := reg.Lookup(name); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewHandler(reg, Options{}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/snapshot", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	image, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d, %v", resp.StatusCode, err)
	}
	if resp.ContentLength != -1 || !slices.Equal(resp.TransferEncoding, []string{"chunked"}) {
		t.Errorf("Content-Length %d, Transfer-Encoding %v: want a chunked body of unstated length", resp.ContentLength, resp.TransferEncoding)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type %q", ct)
	}
	var want bytes.Buffer
	if err := reg.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image, want.Bytes()) {
		t.Fatalf("the served image (%d bytes) is not WriteSnapshot's (%d bytes)", len(image), want.Len())
	}
}

// TestRawResponsesStateTheirLength: every JSON response carries
// Content-Length equal to its body and is not chunked — a pre-encoded batch
// far larger than net/http's 2 KB write buffer, a single prediction, and a
// cold encoding/json one over 2 KB (the status of 32 scheduled jobs).
func TestRawResponsesStateTheirLength(t *testing.T) {
	ts, _, _ := newStack(t, Options{})
	var reqs []PredictRequest
	var jobs []fleetsched.JobSpec
	for i := 0; i < 32; i++ {
		reqs = append(reqs, PredictRequest{Platform: fmt.Sprintf("platform%d", 1+i%2), N: 100 + 10*i, Iterations: 4})
		jobs = append(jobs, fleetsched.JobSpec{Name: fmt.Sprintf("job-%02d", i), N: 100 + 10*i, Iterations: 4})
	}
	batch, _ := json.Marshal(BatchPredictRequest{Requests: reqs})
	schedule, _ := json.Marshal(ScheduleRequest{Jobs: jobs})
	for _, c := range []struct {
		method, route, body string
		over2KB             bool
	}{
		{"POST", "/predict/batch", string(batch), true},
		{"POST", "/predict", `{"platform":"platform1","n":100,"iterations":4}`, false},
		{"POST", "/schedule", string(schedule), true},
		{"GET", "/schedule/status", "", true},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.route, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, %v: %s", c.method, c.route, resp.StatusCode, err, body)
		}
		if c.over2KB && len(body) <= 2048 {
			t.Fatalf("%s %s: %d-byte body fits net/http's buffer and tests nothing", c.method, c.route, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s %s: Content-Length %d, Transfer-Encoding %v for a %d-byte body", c.method, c.route, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// TestWriteJSONRefusesNonFinite: a value encoding/json refuses (here NaN) is
// a 500 whose JSON body names the encoder's error, never a 200 with an
// empty body.
func TestWriteJSONRefusesNonFinite(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"scale": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body["error"], "NaN") {
		t.Errorf("body %q (%v), want a JSON error naming NaN", rec.Body.String(), err)
	}
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
}

// TestObserveAckReportsDrift: POST /observe answers exactly the platform,
// the id it consumed and whether the outcome fired a regime reset, and
// drifted is true on exactly the observes after which GET /accuracy's drift
// log grows by one. The outcomes alternate between dead centre for a
// baseline's worth and ten spreads out, so the CUSUM fires at every flip.
func TestObserveAckReportsDrift(t *testing.T) {
	const wantDrifts = 3
	h := oneTenantHandler(t)
	decodeStrict := func(rec *httptest.ResponseRecorder, v any) {
		t.Helper()
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("status %d: %v", rec.Code, err)
		}
	}
	drifts := 0
	for i, high := 0, false; drifts < wantDrifts; i++ {
		if i > 100*wantDrifts {
			t.Fatalf("only %d drift events after %d observes", drifts, i)
		}
		var pr PredictResponse
		decodeStrict(post(h, "/predict", `{"platform":"platform1","n":120,"iterations":6}`), &pr)
		actual := pr.Mean
		if high {
			actual += 10 * pr.RawSpread
		}
		var ack ObserveResponse
		decodeStrict(post(h, "/observe", fmt.Sprintf(`{"platform":"platform1","id":%d,"actual":%g}`, pr.ID, actual)), &ack)
		if ack.Platform != "platform1" || ack.ID != pr.ID {
			t.Fatalf("observe %d: ack %+v for prediction %d", i, ack, pr.ID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/accuracy?platform=platform1", nil))
		var acc AccuracyResponse
		decodeStrict(rec, &acc)
		a := acc.Platforms[0].Accuracy
		if grew := len(a.Drifts) - drifts; grew != 0 && grew != 1 || ack.Drifted != (grew == 1) {
			t.Fatalf("observe %d: drifted=%v, drift log %d -> %d", i, ack.Drifted, drifts, len(a.Drifts))
		}
		if ack.Drifted && a.Drifts[drifts].Reason != calib.ReasonCUSUM {
			t.Fatalf("observe %d: drift %+v, want the CUSUM's", i, a.Drifts[drifts])
		}
		drifts = len(a.Drifts)
		if a.SinceReset == calib.MinObserved {
			high = !high
		}
	}
}

// TestObserveOverflowingActuals: outcomes near the float64 ceiling, every
// other one of 24 observes on a platform2 tenant from the first on, would
// overflow the calibrator's Z-scores: its CUSUM to +Inf, and at the 24th
// the mode-count check to a sample no mixture has a finite BIC for. Every
// observe is still answered 200, and GET /accuracy afterwards answers 200
// in JSON.
func TestObserveOverflowingActuals(t *testing.T) {
	spec, err := predict.SimulatedSpec(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec.Warmup = 120
	reg := predict.NewRegistry()
	if err := reg.RegisterSpec(spec); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(reg, Options{})
	for i := 0; i < 24; i++ {
		rec := post(h, "/predict", `{"platform":"platform2","n":120,"iterations":6}`)
		var pr PredictResponse
		if err := json.NewDecoder(rec.Body).Decode(&pr); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("predict %d: status %d: %v", i, rec.Code, err)
		}
		actual := pr.Mean
		if i%2 == 0 {
			actual = 1e308
		}
		if rec := post(h, "/observe", fmt.Sprintf(`{"platform":"platform2","id":%d,"actual":%g}`, pr.ID, actual)); rec.Code != http.StatusOK {
			t.Fatalf("observe %d of %g: status %d: %s", i, actual, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/accuracy?platform=platform2", nil))
	var acc AccuracyResponse
	if err := json.NewDecoder(rec.Body).Decode(&acc); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("GET /accuracy: status %d: %v", rec.Code, err)
	}
	if got := acc.Platforms[0].Accuracy.Observed; got != 24 {
		t.Fatalf("GET /accuracy counts %d outcomes, want 24", got)
	}
}

// TestReportIsOneTick: GET /report and GET /healthz read a platform's time
// and its monitors under one hold of the clock. While one goroutine steps
// the clock, every response the pollers get carries the per-machine reports
// a same-seed twin reports at the response's time — never one tick's time
// with the next tick's loads.
func TestReportIsOneTick(t *testing.T) {
	const steps, pollers = 400, 3
	spec, err := predict.SimulatedSpec(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec.Warmup = 200
	twin, err := predict.NewServiceFromSpec(&spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[float64]predict.Readout{}
	for i := 0; ; i++ {
		ro := twin.Readout()
		want[ro.Time] = ro
		if i == steps {
			break
		}
		if err := twin.Advance(5); err != nil {
			t.Fatal(err)
		}
	}

	reg := predict.NewRegistry()
	if err := reg.RegisterSpec(spec); err != nil {
		t.Fatal(err)
	}
	svc, err := reg.Lookup(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(reg, Options{})
	get := func(route string, out any) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", route, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), out); rec.Code != http.StatusOK || err != nil {
			return fmt.Errorf("GET %s: status %d (%v): %s", route, rec.Code, err, rec.Body)
		}
		return nil
	}
	// poll reads /report and /healthz once each and returns the report's
	// time, or how either disagrees with the twin.
	poll := func() (float64, error) {
		var rep ReportResponse
		if err := get("/report?platform="+spec.Name, &rep); err != nil {
			return 0, err
		}
		ro, ok := want[rep.Time]
		if !ok {
			return 0, fmt.Errorf("GET /report at time %g, which the clock never read", rep.Time)
		}
		for m, r := range ro.Reports {
			if m >= len(rep.Loads) || !reflect.DeepEqual(rep.Loads[m], toLoadJSON(r)) {
				return 0, fmt.Errorf("GET /report at time %g: machine %d is not the twin's report at that time, %+v", rep.Time, m, r)
			}
		}
		var health HealthResponse
		if err := get("/healthz", &health); err != nil {
			return 0, err
		}
		hp := health.Platforms[0]
		ro = want[hp.Time]
		if len(hp.Machines) != len(ro.Reports) || hp.BWGaps != ro.BWGaps {
			return 0, fmt.Errorf("GET /healthz at time %g: %+v; the twin's readout then is %+v", hp.Time, hp, ro)
		}
		for m, r := range ro.Reports {
			if hm := hp.Machines[m]; hm.Staleness != r.Staleness || hm.Gaps != r.Gaps {
				return 0, fmt.Errorf("GET /healthz at time %g: machine %d is %+v; the twin's report then is %+v", hp.Time, m, hm, r)
			}
		}
		return rep.Time, nil
	}

	var stepping atomic.Bool
	stepping.Store(true)
	// newest is the latest clock reading any poll has returned, as float
	// bits (non-negative floats order as their bits do).
	var newest atomic.Uint64
	seen := make([]map[float64]bool, pollers)
	var wg sync.WaitGroup
	for p := range seen {
		seen[p] = map[float64]bool{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stepping.Load() {
				at, err := poll()
				if err != nil {
					t.Error(err)
					return
				}
				seen[p][at] = true
				for bits := math.Float64bits(at); ; {
					old := newest.Load()
					if old >= bits || newest.CompareAndSwap(old, bits) {
						break
					}
				}
			}
		}()
	}
	// The stepper is paced: after each step it waits, up to a short bound,
	// until a poll has read the new clock, so a busy machine that starves
	// the pollers cannot let the steps run out before they race them.
	for i := 0; i < steps && !t.Failed(); i++ {
		if err := svc.Advance(5); err != nil {
			t.Error(err)
			break
		}
		now := math.Float64bits(svc.Now())
		for deadline := time.Now().Add(50 * time.Millisecond); newest.Load() < now && time.Now().Before(deadline); {
			time.Sleep(20 * time.Microsecond)
		}
	}
	stepping.Store(false)
	wg.Wait()
	ticks := map[float64]bool{}
	for _, m := range seen {
		for at := range m {
			ticks[at] = true
		}
	}
	if len(ticks) < 10 {
		t.Errorf("the polls read %d of the %d clock readings; too few to race the steps", len(ticks), steps+1)
	}
}
