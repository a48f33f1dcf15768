package api

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestColdRouteBodiesAreExact pins, byte for byte, what GET /healthz, POST
// /schedule and GET /schedule/status answer over a fixed one-tenant fleet
// and a fixed request sequence. The other tests decode these bodies into
// structs, which would not see a key renamed, reordered or newly omitted.
func TestColdRouteBodiesAreExact(t *testing.T) {
	h := oneTenantHandler(t)
	steps := []struct{ method, route, body, want string }{
		{"GET", "/healthz", "", `{"status":"ok","platforms":null}`},
		{"POST", "/schedule", `{"jobs":[{"name":"a","n":120,"iterations":4,"deadline":1000},{"n":200,"iterations":6}],"policy":"mean"}`, `{"policy":"mean","quantile":0.95,"placements":[{"job_id":1,"name":"a","tenant":"platform1","policy":"mean","quantile":0.95,"score":0.12734218980430997,"predicted_mean":0.12734218980430997,"predicted_exec":0.12734218980430997,"prediction_id":1,"time":120,"deadline":1000},{"job_id":2,"tenant":"platform1","policy":"mean","quantile":0.95,"score":0.41041251014122504,"predicted_mean":0.28307032033691504,"predicted_exec":0.28307032033691504,"prediction_id":2,"time":120}],"unplaced":0}`},
		{"POST", "/advance", `{"platform":"platform1","seconds":60}`, ``},
		{"GET", "/schedule/status", "", `{"submitted":2,"queued":0,"running":0,"completed":2,"misses":0,"migrations":0,"unplaced":0,"makespan":0.259623595805337,"saturated_tenants":0,"tenants":[{"name":"platform1","time":180,"queued":0,"running":false,"saturated":false,"rel_width":0.20916890049795658,"drift_events":0,"completed":2}],"jobs":[{"id":1,"name":"a","tenant":"platform1","state":"completed","n":120,"iterations":4,"placed_at":120,"start":120,"finish":120.07541903500866,"deadline":1000,"predicted_exec":0.12734218980430997},{"id":2,"tenant":"platform1","state":"completed","n":200,"iterations":6,"placed_at":120,"start":120.07541903500866,"finish":120.25962359580534,"predicted_exec":0.28307032033691504}]}`},
		{"POST", "/schedule", `{"jobs":[{"name":"b","n":160,"iterations":5}]}`, `{"policy":"quantile","quantile":0.95,"placements":[{"job_id":3,"name":"b","tenant":"platform1","policy":"quantile","quantile":0.95,"score":0.2065395173657475,"predicted_mean":0.19759344532938497,"predicted_exec":0.2065395173657475,"prediction_id":3,"time":180}],"unplaced":0}`},
		{"GET", "/schedule/status", "", `{"submitted":3,"queued":0,"running":1,"completed":2,"misses":0,"migrations":0,"unplaced":0,"makespan":0.259623595805337,"saturated_tenants":0,"tenants":[{"name":"platform1","time":180,"queued":0,"running":true,"saturated":false,"rel_width":0.09128620387436195,"drift_events":0,"completed":2}],"jobs":[{"id":1,"name":"a","tenant":"platform1","state":"completed","n":120,"iterations":4,"placed_at":120,"start":120,"finish":120.07541903500866,"deadline":1000,"predicted_exec":0.12734218980430997},{"id":2,"tenant":"platform1","state":"completed","n":200,"iterations":6,"placed_at":120,"start":120.07541903500866,"finish":120.25962359580534,"predicted_exec":0.28307032033691504},{"id":3,"name":"b","tenant":"platform1","state":"running","n":160,"iterations":5,"placed_at":180,"start":180,"finish":180.11992752106838,"predicted_exec":0.2065395173657475}]}`},
		{"GET", "/healthz", "", `{"status":"ok","platforms":[{"platform":"platform1","time":180,"degraded":false,"machines":[{"machine":0,"staleness":0,"gaps":{"clean":37,"recovered":0,"retries":0,"dropped":0,"outage":0,"transient_lost":0,"sensor_errors":0,"missed":0,"longest_gap":0}},{"machine":1,"staleness":0,"gaps":{"clean":37,"recovered":0,"retries":0,"dropped":0,"outage":0,"transient_lost":0,"sensor_errors":0,"missed":0,"longest_gap":0}},{"machine":2,"staleness":0,"gaps":{"clean":37,"recovered":0,"retries":0,"dropped":0,"outage":0,"transient_lost":0,"sensor_errors":0,"missed":0,"longest_gap":0}},{"machine":3,"staleness":0,"gaps":{"clean":37,"recovered":0,"retries":0,"dropped":0,"outage":0,"transient_lost":0,"sensor_errors":0,"missed":0,"longest_gap":0}}],"bw_gaps":{"clean":111,"recovered":0,"retries":0,"dropped":0,"outage":0,"transient_lost":0,"sensor_errors":0,"missed":0,"longest_gap":0}}]}`},
	}
	for i, s := range steps {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(s.method, s.route, strings.NewReader(s.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("step %d, %s %s: status %d: %s", i, s.method, s.route, rec.Code, rec.Body)
		}
		if s.route == "/advance" {
			continue
		}
		if got := strings.TrimSuffix(rec.Body.String(), "\n"); got != s.want {
			t.Errorf("step %d, %s %s:\n got %s\nwant %s", i, s.method, s.route, got, s.want)
		}
	}
}
