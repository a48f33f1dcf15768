package obs

import (
	"encoding/json"
	"log"
	"net/http"
	"sync"
	"time"
)

// HTTP-layer metric family names — registered by NewHTTPMiddleware and
// documented in OPERATIONS.md (the readmecheck suite enforces the pairing).
const (
	MetricHTTPRequests = "http_requests_total"
	MetricHTTPDuration = "http_request_duration_seconds"
	MetricHTTPInFlight = "http_in_flight_requests"
)

// HTTPMiddleware instruments HTTP handlers: a request counter by route,
// method, and status code; a per-route wall-clock latency histogram; an
// in-flight gauge; and an optional structured (JSON-lines) access log. One
// middleware instance is shared by every route of a server so the families
// are registered exactly once.
//
// Safe for concurrent use; all fields must be set before the first request.
type HTTPMiddleware struct {
	requests *CounterVec
	duration *HistogramVec
	inflight *Gauge

	// Log, when non-nil, receives one JSON object per completed request:
	// {"ts","method","route","status","duration_ms","platform","bytes"}.
	Log *log.Logger
	// PlatformFrom, when non-nil, extracts the platform a request targets
	// (for the access log); it must not consume the request body it is
	// handed unless it restores it.
	PlatformFrom func(*http.Request) string
}

// NewHTTPMiddleware registers the HTTP metric families on reg and returns
// the middleware. A nil registry yields a log-only middleware (all metric
// updates are nil-safe no-ops).
func NewHTTPMiddleware(reg *Registry) *HTTPMiddleware {
	m := &HTTPMiddleware{}
	if reg != nil {
		m.requests = reg.NewCounterVec(MetricHTTPRequests,
			"HTTP requests served, by route, method, and status code.",
			"route", "method", "code")
		m.duration = reg.NewHistogramVec(MetricHTTPDuration,
			"Wall-clock request latency in seconds, by route.",
			nil, "route")
		m.inflight = reg.NewGauge(MetricHTTPInFlight,
			"Requests currently being served.")
	}
	return m
}

// statusRecorder captures the response status and size for metrics/logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// Wrap instruments next under the given route name. The route name is used
// as the metric label and log field — use the registered pattern (e.g.
// "POST /predict"), not the raw request path, to keep cardinality bounded.
//
// The per-route series are resolved once at Wrap time and the per-status
// counter series are cached after first use, so the steady-state request
// path does no label-key formatting or registry map walks, and allocates
// once: the status recorder. PlatformFrom
// (which may peek at the request body) is only consulted when the access
// log is enabled.
func (m *HTTPMiddleware) Wrap(route string, next http.Handler) http.Handler {
	if m == nil {
		return next
	}
	var duration *Histogram
	if m.duration != nil {
		duration = m.duration.With(route)
	}
	// The cache is keyed by the status code itself: its label text is
	// formatted only on a miss, so a hit allocates nothing.
	type statusKey struct {
		method string
		status int
	}
	var statusMu sync.RWMutex
	statusCounters := make(map[statusKey]*Counter)
	counterFor := func(method string, status int) *Counter {
		if m.requests == nil {
			return nil
		}
		key := statusKey{method, status}
		statusMu.RLock()
		c, ok := statusCounters[key]
		statusMu.RUnlock()
		if ok {
			return c
		}
		statusMu.Lock()
		defer statusMu.Unlock()
		if c, ok = statusCounters[key]; !ok {
			c = m.requests.With(route, method, itoa3(status))
			statusCounters[key] = c
		}
		return c
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		platform := ""
		if m.Log != nil && m.PlatformFrom != nil {
			platform = m.PlatformFrom(r)
		}
		m.inflight.Add(1)
		defer m.inflight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)

		counterFor(r.Method, rec.status).Inc()
		duration.Observe(elapsed.Seconds())
		if m.Log != nil {
			line, _ := json.Marshal(map[string]any{
				"ts":          time.Now().UTC().Format(time.RFC3339Nano),
				"method":      r.Method,
				"route":       route,
				"status":      rec.status,
				"duration_ms": float64(elapsed.Microseconds()) / 1000,
				"platform":    platform,
				"bytes":       rec.bytes,
			})
			m.Log.Print(string(line))
		}
	})
}

// itoa3 formats the 3-digit HTTP status codes without strconv allocation
// games for the common range.
func itoa3(code int) string {
	if code < 100 || code > 999 {
		code = 0
	}
	return string([]byte{byte('0' + code/100), byte('0' + code/10%10), byte('0' + code%10)})
}
