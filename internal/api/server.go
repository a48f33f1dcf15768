// Package api is predictd's HTTP layer: JSON wire types, the route table,
// and the instrumented handler over a predict.Registry. It lives outside
// cmd/predictd so the load-test driver and the docs-drift checks can import
// the same routes and payload shapes the daemon serves.
//
// All handlers are safe for concurrent use (predict.Service serializes
// internally) and honor request-context cancellation: a handler that loses
// its client mid-walk stops without writing a response. Wrong-method hits
// on a registered path return 405 Method Not Allowed, not 404.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"prodpred/internal/fleetsched"
	"prodpred/internal/obs"
	"prodpred/internal/predict"
)

// MetricUptime is the daemon-level uptime gauge, in wall-clock seconds
// since the handler was built.
const MetricUptime = "predictd_uptime_seconds"

// Route names one endpoint served by NewHandler: the mux pattern
// ("METHOD /path") and a one-line summary. The pattern doubles as the
// route label on the HTTP metrics and access log.
type Route struct {
	Pattern string
	Summary string
}

// Routes is the full endpoint catalog, in registration order. Every entry
// must be documented in OPERATIONS.md — internal/readmecheck fails on
// drift.
var Routes = []Route{
	{"POST /predict", "issue a stochastic runtime prediction"},
	{"POST /predict/batch", "issue many predictions in one round trip"},
	{"POST /observe", "feed a measured runtime back to the online calibrator"},
	{"GET /accuracy", "calibration state: capture rates, scales, drift events, outstanding ids"},
	{"GET /report", "per-machine monitor reports, all at one virtual time"},
	{"GET /healthz", "serving status plus per-fault-class gap counters"},
	{"POST /advance", "manually advance a platform's virtual clock"},
	{"POST /snapshot", "stream a binary snapshot of the full fleet state"},
	{"POST /schedule", "place SOR jobs across the fleet by predicted runtime distribution"},
	{"GET /schedule/status", "fleet-scheduler state: tenants, jobs, saturation"},
	{"GET /metrics", "Prometheus text exposition of the metric catalog"},
}

// PprofRoutes are registered only when Options.EnablePprof is set (the
// daemon's -pprof flag). The index page links the usual profiles.
var PprofRoutes = []Route{
	{"GET /debug/pprof/", "pprof profile index (opt-in)"},
}

// Options configures the optional observability surfaces of the handler.
// The zero value serves the JSON API with a private metrics registry (so
// GET /metrics always works), no access log, and no pprof.
type Options struct {
	// Metrics receives the HTTP-layer families and the uptime gauge; pass
	// the same registry the predict services were built with so one scrape
	// covers the whole catalog. Nil gets a fresh private registry.
	Metrics *obs.Registry
	// AccessLog, when non-nil, receives one JSON line per request.
	AccessLog *log.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

// server routes HTTP requests onto a predict.Registry and its fleet
// scheduler.
type server struct {
	reg   *predict.Registry
	sched *fleetsched.Scheduler
}

// NewHandler builds the daemon's HTTP handler over reg: every Routes entry
// wrapped in the metrics/logging middleware, plus pprof when enabled.
func NewHandler(reg *predict.Registry, opts Options) http.Handler {
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	start := time.Now()
	opts.Metrics.NewGaugeVec(MetricUptime, "Wall-clock seconds since the HTTP handler was built.").
		Func(func() float64 { return time.Since(start).Seconds() })

	mw := obs.NewHTTPMiddleware(opts.Metrics)
	mw.Log = opts.AccessLog
	mw.PlatformFrom = platformFrom

	sched := fleetsched.New(reg, fleetsched.Config{Metrics: opts.Metrics})
	s := &server{reg: reg, sched: sched}
	handlers := map[string]http.Handler{
		"POST /predict":        http.HandlerFunc(s.handlePredict),
		"POST /predict/batch":  http.HandlerFunc(s.handleBatchPredict),
		"POST /observe":        http.HandlerFunc(s.handleObserve),
		"GET /accuracy":        http.HandlerFunc(s.handleAccuracy),
		"GET /report":          http.HandlerFunc(s.handleReport),
		"GET /healthz":         http.HandlerFunc(s.handleHealthz),
		"POST /advance":        http.HandlerFunc(s.handleAdvance),
		"POST /snapshot":       http.HandlerFunc(s.handleSnapshot),
		"POST /schedule":       http.HandlerFunc(s.handleSchedule),
		"GET /schedule/status": http.HandlerFunc(s.handleScheduleStatus),
		"GET /metrics":         opts.Metrics.Handler(),
	}
	mux := http.NewServeMux()
	for _, rt := range Routes {
		h, ok := handlers[rt.Pattern]
		if !ok {
			panic("api: route " + rt.Pattern + " has no handler")
		}
		mux.Handle(rt.Pattern, mw.Wrap(rt.Pattern, h))
	}
	if opts.EnablePprof {
		// The pprof index and its profile sub-pages; instrumented under one
		// route label so profile names don't blow up metric cardinality.
		mux.Handle("GET /debug/pprof/", mw.Wrap("GET /debug/pprof/", http.HandlerFunc(pprof.Index)))
		mux.Handle("GET /debug/pprof/profile", mw.Wrap("GET /debug/pprof/", http.HandlerFunc(pprof.Profile)))
		mux.Handle("GET /debug/pprof/trace", mw.Wrap("GET /debug/pprof/", http.HandlerFunc(pprof.Trace)))
		mux.Handle("GET /debug/pprof/symbol", mw.Wrap("GET /debug/pprof/", http.HandlerFunc(pprof.Symbol)))
		mux.Handle("GET /debug/pprof/cmdline", mw.Wrap("GET /debug/pprof/", http.HandlerFunc(pprof.Cmdline)))
	}
	return mux
}

// platformFrom extracts the platform a request targets, for the access
// log: the query parameter when present, else a peek at a JSON body (which
// is restored for the handler).
func platformFrom(r *http.Request) string {
	if p := r.URL.Query().Get("platform"); p != "" {
		return p
	}
	if r.Method == http.MethodGet || r.Body == nil {
		return ""
	}
	peeked, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		return ""
	}
	r.Body = struct {
		io.Reader
		io.Closer
	}{io.MultiReader(bytes.NewReader(peeked), r.Body), r.Body}
	var peek struct {
		Platform string `json:"platform"`
	}
	_ = json.Unmarshal(peeked, &peek)
	return peek.Platform
}

// maxBodyBytes bounds a request body read into a pooled buffer.
const maxBodyBytes = 1 << 20

// errQuery refuses a query string on the predict routes: a request's
// interval levels are its body's levels array, and nothing else is read
// from the URL.
var errQuery = errors.New("query parameters are not accepted: send interval levels as the body's levels array")

// decodeBody is the one way a request body enters the daemon: the whole
// body read into a pooled buffer (at most maxBodyBytes), then decoded into
// v by encoding/json, refusing a key v does not declare (the error names
// it) and anything but whitespace after the value.
func decodeBody(r *http.Request, v any) error {
	in := getBuf()
	defer in.release()
	err := readBody(r, in)
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(in.b))
		dec.DisallowUnknownFields()
		if err = dec.Decode(v); err == nil {
			if _, end := dec.Token(); end != io.EOF {
				err = errors.New("data after the JSON value")
			}
		}
	}
	if err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// readBody reads the whole request body into pb, growing as needed.
func readBody(r *http.Request, pb *poolBuf) error {
	for {
		if len(pb.b) == cap(pb.b) {
			pb.b = append(pb.b, 0)[:len(pb.b)]
		}
		n, err := r.Body.Read(pb.b[len(pb.b):cap(pb.b)])
		pb.b = pb.b[:len(pb.b)+n]
		if len(pb.b) > maxBodyBytes {
			return fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// writeRaw sends a pre-encoded JSON payload with its length, so a body
// larger than net/http's write buffer still goes out whole, not chunked.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.URL.RawQuery != "" {
		httpError(w, http.StatusBadRequest, errQuery)
		return
	}
	var pr PredictRequest
	if err := decodeBody(r, &pr); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	req, err := pr.ToRequest()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	svc, err := s.reg.Lookup(pr.Platform)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	pred, err := svc.Predict(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	out := getBuf()
	defer out.release()
	out.b = appendPrediction(out.b, svc.Name(), &pred)
	writeRaw(w, http.StatusOK, out.b)
}

// handleBatchPredict answers POST /predict/batch: every item resolves
// against one frozen virtual tick per platform, repeated request shapes
// share a single pipeline evaluation, and the whole batch costs one
// request/response round trip. Items fail independently — the call itself
// fails only on a malformed envelope, an empty batch, or one above
// MaxBatchSize.
func (s *server) handleBatchPredict(w http.ResponseWriter, r *http.Request) {
	if r.URL.RawQuery != "" {
		httpError(w, http.StatusBadRequest, errQuery)
		return
	}
	var br BatchPredictRequest
	if err := decodeBody(r, &br); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	items := br.Requests
	if len(items) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(items) > MaxBatchSize {
		httpError(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds limit %d", len(items), MaxBatchSize))
		return
	}
	// Translate the wire items; translation failures become positional
	// errors, not a failed batch.
	reqs := make([]predict.Request, 0, len(items))
	itemErrs := make([]error, len(items))
	for i, pr := range items {
		req, err := pr.ToRequest()
		if err != nil {
			itemErrs[i] = err
			continue
		}
		reqs = append(reqs, req)
	}
	preds := make([]predict.Prediction, len(reqs))
	predErrs := make([]error, len(reqs))
	svcs := make([]*predict.Service, len(reqs))
	s.reg.PredictInto(reqs, preds, predErrs, svcs)
	out := getBuf()
	defer out.release()
	out.b = append(out.b, `{"responses":[`...)
	errCount := 0
	j := -1 // reqs[j] is the translation of the last well-formed item
	for i := range items {
		if i > 0 {
			out.b = append(out.b, ',')
		}
		err := itemErrs[i]
		if err == nil {
			j++
			err = predErrs[j]
		}
		if err != nil {
			errCount++
			out.b = appendErrorObj(out.b, err.Error())
			continue
		}
		out.b = appendPrediction(out.b, svcs[j].Name(), &preds[j])
	}
	out.b = append(out.b, `],"errors":`...)
	out.b = strconv.AppendInt(out.b, int64(errCount), 10)
	out.b = append(out.b, '}')
	writeRaw(w, http.StatusOK, out.b)
}

func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	svc, err := s.reg.Lookup(r.URL.Query().Get("platform"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	// Time and loads are one read: the loads are exactly those of every
	// prediction stamped with this time.
	ro := svc.Readout()
	resp := ReportResponse{Platform: svc.Name(), Time: ro.Time}
	for _, rep := range ro.Reports {
		// The client may hang up while we walk monitor state; stop early
		// rather than marshal a response nobody reads.
		if ctx.Err() != nil {
			return
		}
		resp.Loads = append(resp.Loads, toLoadJSON(rep))
	}
	if ctx.Err() != nil {
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var or ObserveRequest
	if err := decodeBody(r, &or); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	svc, err := s.reg.Lookup(or.Platform)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	drifted, err := svc.Observe(or.ID, or.Actual)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ObserveResponse{Platform: svc.Name(), ID: or.ID, Drifted: drifted})
}

func (s *server) handleAccuracy(w http.ResponseWriter, r *http.Request) {
	services := s.reg.Services()
	if name := r.URL.Query().Get("platform"); name != "" {
		svc, err := s.reg.Lookup(name)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		services = []*predict.Service{svc}
	}
	var resp AccuracyResponse
	for _, svc := range services {
		resp.Platforms = append(resp.Platforms, AccuracyPlatform{
			Platform:    svc.Name(),
			Time:        svc.Now(),
			Outstanding: svc.Outstanding(),
			Accuracy:    svc.Accuracy(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	resp := HealthResponse{Status: "ok"}
	for _, svc := range s.reg.Services() {
		if ctx.Err() != nil {
			return
		}
		ro := svc.Readout()
		hp := HealthPlatform{
			Platform: svc.Name(),
			Time:     ro.Time,
			BWGaps:   ro.BWGaps,
		}
		for _, rep := range ro.Reports {
			if rep.Staleness > 0 {
				hp.Degraded = true
				resp.Status = "degraded"
			}
			hp.Machines = append(hp.Machines, HealthMachine{
				Machine: rep.Machine, Staleness: rep.Staleness, Gaps: rep.Gaps,
			})
		}
		resp.Platforms = append(resp.Platforms, hp)
	}
	if ctx.Err() != nil {
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var ar AdvanceRequest
	if err := decodeBody(r, &ar); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := checkAdvance(ar.Seconds); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	out := map[string]float64{}
	if ar.Platform != "" {
		svc, err := s.reg.Lookup(ar.Platform)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		if err := svc.Advance(ar.Seconds); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		out[svc.Name()] = svc.Now()
	} else {
		services, times, err := s.reg.AdvanceAll(ar.Seconds)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		for i, svc := range services {
			out[svc.Name()] = times[i]
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSnapshot answers POST /snapshot: the versioned binary image of
// every registered platform — cold specs included — suitable for
// `predictd -restore`. POST, not GET: exporting takes each live service's
// clock lock exclusively, briefly pausing its serving path, so the
// operation is not a safe idempotent read.
//
// The image is streamed to the client platform by platform, with no
// Content-Length (a chunked response): a clock lock is held only while its
// platform's section is encoded, never across a network write. The 409 is
// a spec that does not marshal, which is found before the first byte; once
// the image has started, a failed write means the client is gone, and the
// truncated image is all it gets.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	sw := &countingWriter{w: w}
	if err := s.reg.WriteSnapshot(sw); err != nil && sw.n == 0 {
		httpError(w, http.StatusConflict, err)
	}
}

// countingWriter counts the bytes written through it, so a handler knows
// whether its response has started.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// handleSchedule answers POST /schedule: place up to MaxScheduleJobs SOR
// jobs across the fleet under the body's placement policy (quantile
// placement at fleetsched.DefaultQuantile when it names none). Tenants
// that fail lookup or prediction are skipped and recorded; jobs no tenant
// can score are dropped and counted, not queued.
func (s *server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var sr ScheduleRequest
	if err := decodeBody(r, &sr); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(sr.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty job list"))
		return
	}
	if len(sr.Jobs) > MaxScheduleJobs {
		httpError(w, http.StatusBadRequest, fmt.Errorf("%d jobs exceeds limit %d", len(sr.Jobs), MaxScheduleJobs))
		return
	}
	policy, quantile := fleetsched.Policy(sr.Policy), sr.Quantile
	if policy == "" {
		policy = fleetsched.PolicyQuantile
	}
	if quantile == 0 {
		quantile = fleetsched.DefaultQuantile
	}
	pls, err := s.sched.SubmitWith(sr.Jobs, policy, quantile)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ScheduleResponse{
		Policy:     string(policy),
		Quantile:   quantile,
		Placements: pls,
		Unplaced:   len(sr.Jobs) - len(pls),
	})
}

// handleScheduleStatus answers GET /schedule/status: fold the fleet's
// clock progress into the schedule (jobs start, finish, feed the
// calibrators; saturation re-evaluates; queued work migrates), then
// report the scheduler snapshot.
func (s *server) handleScheduleStatus(w http.ResponseWriter, r *http.Request) {
	s.sched.Sync()
	writeJSON(w, http.StatusOK, s.sched.Status())
}

// writeJSON encodes v with encoding/json into a pooled buffer and sends it
// with its length. A value encoding/json refuses (a NaN or an infinity) is
// a 500 carrying the encoder's error, never a status with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	out := getBuf()
	defer out.release()
	buf := bytes.NewBuffer(out.b)
	err := json.NewEncoder(buf).Encode(v)
	out.b = buf.Bytes()
	if err != nil {
		out.b = append(appendErrorObj(out.b[:0], "encoding the response: "+err.Error()), '\n')
		status = http.StatusInternalServerError
	}
	writeRaw(w, status, out.b)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
