package obs

import (
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMiddlewareMetricsAndLog(t *testing.T) {
	reg := NewRegistry()
	var logBuf strings.Builder
	mw := NewHTTPMiddleware(reg)
	mw.Log = log.New(&logBuf, "", 0)
	mw.PlatformFrom = func(r *http.Request) string { return r.URL.Query().Get("platform") }

	h := mw.Wrap("GET /report", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		_, _ = w.Write([]byte("hello"))
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/report?platform=platform1", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status=%d", rec.Code)
	}

	if got := mw.requests.With("GET /report", "GET", "418").Value(); got != 1 {
		t.Errorf("requests counter=%d, want 1", got)
	}
	if s := mw.duration.With("GET /report").Snapshot(); s.Count != 1 || s.Sum < 0 {
		t.Errorf("duration snapshot=%+v", s)
	}
	if v := mw.inflight.Value(); v != 0 {
		t.Errorf("in-flight=%g after completion, want 0", v)
	}

	// The access log is one JSON object per request with the structured
	// fields the runbook documents.
	var entry map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(logBuf.String())), &entry); err != nil {
		t.Fatalf("access log line is not JSON: %v\n%s", err, logBuf.String())
	}
	if entry["method"] != "GET" || entry["route"] != "GET /report" ||
		entry["status"] != float64(418) || entry["platform"] != "platform1" {
		t.Errorf("log entry=%v", entry)
	}
	if _, ok := entry["duration_ms"].(float64); !ok {
		t.Errorf("log entry missing duration_ms: %v", entry)
	}
	if entry["bytes"] != float64(len("hello")) {
		t.Errorf("bytes=%v", entry["bytes"])
	}
}

func TestMiddlewareDefaultStatus200(t *testing.T) {
	reg := NewRegistry()
	mw := NewHTTPMiddleware(reg)
	h := mw.Wrap("GET /ok", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("x")) // implicit 200
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))
	if got := mw.requests.With("GET /ok", "GET", "200").Value(); got != 1 {
		t.Errorf("implicit-200 counter=%d, want 1", got)
	}
}

func TestMiddlewareNoRegistryLogsOnly(t *testing.T) {
	var logBuf strings.Builder
	mw := NewHTTPMiddleware(nil)
	mw.Log = log.New(&logBuf, "", 0)
	h := mw.Wrap("GET /x", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if !strings.Contains(logBuf.String(), `"route":"GET /x"`) {
		t.Errorf("log-only middleware wrote no access log: %q", logBuf.String())
	}
}

func TestItoa3(t *testing.T) {
	for code, want := range map[int]string{200: "200", 404: "404", 99: "000", 1000: "000"} {
		if got := itoa3(code); got != want {
			t.Errorf("itoa3(%d)=%q, want %q", code, got, want)
		}
	}
}

// TestMiddlewareAllocs: once a route has served a status, a request through
// the middleware allocates only its status recorder.
func TestMiddlewareAllocs(t *testing.T) {
	mw := NewHTTPMiddleware(NewRegistry())
	h := mw.Wrap("GET /ok", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	req := httptest.NewRequest("GET", "/ok", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if allocs := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) }); allocs > 1 {
		t.Errorf("a request allocates %.0f times, want <= 1", allocs)
	}
}
