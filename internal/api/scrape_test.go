package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"prodpred/internal/fleetsched"
	"prodpred/internal/obs"
	"prodpred/internal/predict"
)

// scrape serves one GET /metrics and returns every sample's value, keyed
// by the text before it (name plus labels).
func scrape(h http.Handler) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	if _, _, err := obs.ParseText(strings.NewReader(rec.Body.String())); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metric line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// postJSON posts body to the handler in-process and decodes a 200 answer
// into out (when non-nil).
func postJSON(h http.Handler, route, body string, out any) error {
	rec := post(h, route, body)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("POST %s %s: status %d: %s", route, body, rec.Code, rec.Body)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// TestScrapeDuringFleetOps: GET /metrics scrapes race fleet-wide clock
// steps, predict/observe round trips, POST /schedule rounds and a tenant's
// retirement and re-registration. The gauges take their owners' locks at
// scrape time, so this is -race's test of that; once the traffic stops, one
// scrape must read exactly the state the fleet and the scheduler report.
func TestScrapeDuringFleetOps(t *testing.T) {
	const tenants, rounds = 6, 40
	metrics := obs.NewRegistry()
	reg := predict.NewRegistryWith(predict.RegistryOptions{Metrics: metrics})
	specs := predict.FleetSpecs(tenants, 9)
	for _, spec := range specs {
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Lookup(spec.Name); err != nil {
			t.Fatal(err)
		}
	}
	h := NewHandler(reg, Options{Metrics: metrics})
	churned := specs[tenants-1]

	ops := []func(r int) error{
		func(int) error { return postJSON(h, "/advance", `{"seconds":5}`, nil) },
		func(r int) error {
			tenant := specs[r%(tenants-1)].Name
			var pr PredictResponse
			if err := postJSON(h, "/predict", fmt.Sprintf(`{"platform":%q,"n":120,"iterations":4}`, tenant), &pr); err != nil {
				return err
			}
			if r%3 == 0 {
				return nil // left outstanding
			}
			return postJSON(h, "/observe", fmt.Sprintf(`{"platform":%q,"id":%d,"actual":%g}`, tenant, pr.ID, 1.5*pr.Mean), nil)
		},
		func(int) error {
			return postJSON(h, "/schedule", `{"jobs":[{"n":120,"iterations":4},{"n":150,"iterations":6},{"n":120,"iterations":8}]}`, nil)
		},
		func(r int) error {
			if r%2 == 0 {
				return reg.Retire(churned.Name)
			}
			if err := reg.RegisterSpec(churned); err != nil {
				return err
			}
			_, err := reg.Lookup(churned.Name)
			return err
		},
	}
	var traffic, scraper sync.WaitGroup
	var stop atomic.Bool
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for !stop.Load() {
			if _, err := scrape(h); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, op := range ops {
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			for r := 0; r < rounds; r++ {
				if err := op(r); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	traffic.Wait()
	stop.Store(true)
	scraper.Wait()
	if t.Failed() {
		return
	}

	// GET /schedule/status syncs the schedule (observing the jobs that are
	// due) before it answers, so it goes first.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/schedule/status", nil))
	var st fleetsched.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	m, err := scrape(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range reg.Services() {
		label := fmt.Sprintf(`{platform=%q}`, svc.Name())
		for family, want := range map[string]float64{
			predict.MetricVirtualTime:      svc.Now(),
			predict.MetricOutstanding:      float64(svc.Outstanding()),
			predict.MetricCalibrationScale: svc.Accuracy().Scale,
		} {
			if got, ok := m[family+label]; !ok || got != want {
				t.Errorf("%s%s reads %g (present %v), the service holds %g", family, label, got, ok, want)
			}
		}
	}
	for family, want := range map[string]int{
		fleetsched.MetricJobsOutstanding: st.Queued + st.Running,
		fleetsched.MetricSaturated:       st.SaturatedTenants,
		fleetsched.MetricJobsCompleted:   st.Completed,
		fleetsched.MetricMigrations:      st.Migrations,
		fleetsched.MetricUnplaced:        st.Unplaced,
	} {
		if got := m[family]; got != float64(want) {
			t.Errorf("%s reads %g, /schedule/status %d", family, got, want)
		}
	}
	if got := m[fleetsched.MetricPlacements+`{policy="quantile"}`]; got != float64(st.Submitted-st.Unplaced+st.Migrations) {
		t.Errorf("%s{policy=quantile} reads %g; %d jobs were placed and %d migrated", fleetsched.MetricPlacements, got, st.Submitted-st.Unplaced, st.Migrations)
	}
}
