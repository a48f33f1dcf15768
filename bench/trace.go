package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// perLayer is the traced run's metric list: one layer = one module. Every
// workload reports every name; a layer that does not run on a workload
// reports its cost (it can still be timed) and a count of 0.
var perLayer = []metricDef{
	// transport
	{"transport.self_us", "us"}, {"transport.echo_floor_us", "us"},
	{"transport.req_bytes", "B"}, {"transport.resp_bytes", "B"},
	// api / obs
	{"api.self_us.predict", "us"}, {"api.self_us.batch_item", "us"}, {"api.self_us.observe", "us"},
	{"api.allocs.predict", "count"}, {"api.non2xx", "count"},
	{"obs.mw_us", "us"}, {"obs.scrape_ms", "ms"},
	// predict
	{"predict.lookup_ns", "ns"}, {"predict.hit_us", "us"}, {"predict.miss_us", "us"},
	{"predict.grid_us", "us"}, {"predict.overlay_q_us", "us"}, {"predict.observe_us", "us"},
	{"predict.advance_us", "us"}, {"predict.instantiate_ms", "ms"},
	{"predict.cache_hit_share", "ratio"}, {"predict.grid_evals", "count"},
	{"predict.snapshot_write_ms", "ms"}, {"predict.snapshot_read_ms", "ms"}, {"predict.snapshot_mb", "MB"},
	{"predict.stage_us.monitor_read", "us"}, {"predict.stage_us.forecast", "us"}, {"predict.stage_us.schedule", "us"},
	{"predict.stage_us.model_eval", "us"}, {"predict.stage_us.dist_grid", "us"},
	// nws / modal / simenv
	{"nws.sample_us", "us"}, {"nws.tournament_us", "us"}, {"nws.mix_us", "us"},
	{"nws.samples", "count"}, {"nws.monitors", "count"},
	{"modal.fitem_us", "us"}, {"modal.fitbic_us", "us"}, {"simenv.sample_us", "us"},
	// structural / calib
	{"structural.eval_us", "us"}, {"calib.observe_us", "us"}, {"calib.calibrate_us", "us"},
	// fleetsched
	{"fleetsched.submit_us_per_job", "us"}, {"fleetsched.sync_us", "us"},
	{"fleetsched.placed_share", "ratio"}, {"fleetsched.migrations", "count"},
	// where the time goes, by depth
	{"share.nws_modal_simenv", "ratio"}, {"share.grid_structural", "ratio"}, {"share.transport_api_obs", "ratio"},
	// bookkeeping
	{"budget.residual_share", "ratio"}, {"trace.overhead_share", "ratio"},
	{"client.late_ms_p99", "ms"}, {"client.cpu_share", "ratio"}, {"machine.calib_ms", "ms"}, {"machine.speed", "ratio"},
	// end-to-end figures that cannot be bounded (README.md, "Demoted"):
	// fleet-only, quantised, unsteady, or always zero.
	{"ops.predict_p99_ms", "ms"}, {"ops.advance_p99_ms", "ms"}, {"ops.schedule_p50_ms", "ms"},
	{"ops.snapshot_ms", "ms"}, {"ops.restore_s", "s"}, {"ops.max_rate_ok", "1/s"}, {"ops.error_share", "ratio"},
}

// rateSteps are the open-loop rates of the diagnostic run, as multiples of
// the workload's frozen rate: 1000 / 2000 / 4000 calls/s on hot-hit.
var rateSteps = []float64{0.5, 1, 2}

// Limits of ops.max_rate_ok: a rate is met when the predict p99 stays
// under the latency limit, nothing fails, and the generator's lateness over
// the last tenth of the phase shows no growing backlog.
const (
	latencyLimitMS = 20.0
	backlogLimitMS = 5.0
)

// perCallUS runs f for about budget and returns its mean per-call time in
// microseconds: the median of three windows' means. Means, because several
// of the timed calls are periodic (a monitor refits its mixture every 16th
// sample) and a budget row needs the amortised cost; three windows, so one
// burst of interference cannot set the figure.
func perCallUS(budget time.Duration, f func()) float64 {
	var means []float64
	for w := 0; w < 3; w++ {
		t0 := time.Now()
		n, batch := 0, 1
		for el := time.Duration(0); el < budget/3; el = time.Since(t0) {
			b0 := time.Now()
			for i := 0; i < batch; i++ {
				f()
			}
			n += batch
			if time.Since(b0) < 200*time.Microsecond {
				batch *= 2 // keep the clock reads out of a sub-microsecond call's cost
			}
		}
		means = append(means, float64(time.Since(t0))/float64(n)/1e3)
	}
	return median(means)
}

// diffUS is the per-call cost of b over a in microseconds, from alternating
// batches so that drift (cache growth, GC) hits both sides alike.
func diffUS(budget time.Duration, a, b func()) float64 {
	var ds []float64
	for i := 0; i < 3; i++ {
		ca := perCallUS(budget/6, a)
		ds = append(ds, perCallUS(budget/6, b)-ca)
	}
	return median(ds)
}

// machineCalibMS times a fixed pure-Go kernel — a Gauss-Seidel sweep over a
// 256x256 grid, 20 times, the arithmetic this repository is about — so two
// result files from different machines can be compared normalised.
func machineCalibMS() float64 {
	const n = 256
	grid := make([]float64, n*n)
	for i := range grid {
		grid[i] = float64(i%17) * 0.25
	}
	run := func() {
		for it := 0; it < 20; it++ {
			for r := 1; r < n-1; r++ {
				row := grid[r*n : (r+1)*n]
				up, down := grid[(r-1)*n:r*n], grid[(r+1)*n:(r+2)*n]
				for c := 1; c < n-1; c++ {
					row[c] = 0.25 * (up[c] + down[c] + row[c-1] + row[c+1])
				}
			}
		}
	}
	var times []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		run()
		times = append(times, ms(time.Since(t0)))
	}
	return median(times)
}

type discardWriter struct{}

func (discardWriter) Header() http.Header         { return http.Header{} }
func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) WriteHeader(int)             {}

// depth is how much of the stack a traced replay goes through.
type depth int

const (
	depthLoopback depth = iota // net/http over 127.0.0.1 -> api handler -> predict
	depthHandler               // api handler on a recorder -> predict
	depthDirect                // predict.Registry / Service only
)

var depthNames = []string{"loopback", "handler", "predict"}

// swapHandler lets a restart replace the handler under a live server.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, r)
}

// spanHandler is the benchmark-owned wrapper around api.NewHandler: it
// records when each request entered and left the handler — the api span.
type spanHandler struct {
	next   http.Handler
	origin time.Time
	mu     sync.Mutex
	spans  [][2]time.Duration
}

func (s *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Since(s.origin)
	s.next.ServeHTTP(w, r)
	t1 := time.Since(s.origin)
	s.mu.Lock()
	s.spans = append(s.spans, [2]time.Duration{t0, t1})
	s.mu.Unlock()
}

// twinStack serves a script from an in-process twin at one depth.
type twinStack struct {
	t     *twin
	h     swapHandler
	spans *spanHandler // the HTTP depths, when tracing
	srv   *http.Server
	execs [conns]executor
}

func newTwinStack(t *twin, d depth, traced bool, origin time.Time) (*twinStack, error) {
	s := &twinStack{t: t}
	s.h.set(t.handler())
	var h http.Handler = &s.h
	if traced && d != depthDirect {
		s.spans = &spanHandler{next: &s.h, origin: origin}
		h = s.spans
	}
	switch d {
	case depthDirect:
		for c := range s.execs {
			s.execs[c] = directOver(&s.t)
		}
	case depthHandler:
		for c := range s.execs {
			s.execs[c] = newHTTPExec(&http.Client{Transport: handlerTransport{h}}, "http://twin")
		}
	case depthLoopback:
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.srv = &http.Server{Handler: h}
		go func() { _ = s.srv.Serve(ln) }() // returns ErrServerClosed on close()
		for c := range s.execs {
			s.execs[c] = newHTTPExec(newConnClient(), "http://"+ln.Addr().String())
		}
	}
	return s, nil
}

func (s *twinStack) executor(c int) executor { return s.execs[c] }
func (s *twinStack) cpuSeconds() float64     { return 0 }

func (s *twinStack) restart() (restartStats, error) {
	t, rs, err := s.t.clone()
	if err != nil {
		return rs, err
	}
	s.t = t
	s.h.set(t.handler())
	return rs, nil
}

func (s *twinStack) close() {
	if s.srv != nil {
		_ = s.srv.Close() // in-flight calls are over; nothing to drain
		for _, x := range s.execs {
			x.(*httpExec).client.CloseIdleConnections()
		}
	}
}

// primedTwin builds the fleet in-process and runs the priming pass on it,
// at predict depth: the state every replay is cloned from.
func (e *runEnv) primedTwin() (*twin, error) {
	base, err := newTwin(e.specs)
	if err != nil {
		return nil, err
	}
	primer, err := newTwinStack(base, depthDirect, false, time.Now())
	if err != nil {
		return nil, err
	}
	prime := newScriptRun(e.w, e.seed, primer, e.truth)
	prime.sequential = true
	st, err := prime.prime()
	if err != nil {
		return nil, err
	}
	if st.failed > 0 {
		return nil, fmt.Errorf("priming the twin failed: %s", st.failures[0])
	}
	return base, nil
}

// depthRun is one replay of the shortened script at one depth.
type depthRun struct {
	stats   *phaseStats
	spans   [][2]time.Duration // api spans, at the HTTP depths
	metrics metricsText        // the twin's own /metrics after the replay
	digest  string
	bytes   [2]float64 // mean request and response bytes per call
}

// replay runs the script on a fresh clone of base, on one goroutine: for
// `seconds` when positive, else for exactly `epochs` epochs.
func (e *runEnv) replay(base *twin, d depth, seconds float64, epochs int, traced bool, origin time.Time) (*depthRun, error) {
	t, _, err := base.clone()
	if err != nil {
		return nil, err
	}
	stk, err := newTwinStack(t, d, traced, origin)
	if err != nil {
		return nil, err
	}
	defer stk.close()
	run := newScriptRun(e.w, e.seed, stk, e.truth)
	run.sequential, run.recordOps, run.origin = true, traced, origin
	st, err := run.phase(seconds, epochs)
	if err != nil {
		return nil, err
	}
	out := &depthRun{stats: st, digest: run.digest()}
	if stk.spans != nil {
		out.spans = stk.spans.spans
	}
	if out.metrics, err = t.metricsText(); err != nil {
		return nil, err
	}
	var req, resp, calls int64
	for _, x := range stk.execs {
		if hx, ok := x.(*httpExec); ok {
			req, resp, calls = req+hx.reqBytes, resp+hx.respBytes, calls+hx.calls
		}
	}
	if calls > 0 {
		out.bytes = [2]float64{float64(req) / float64(calls), float64(resp) / float64(calls)}
	}
	return out, nil
}

// runTraced is --trace 1. A short untraced run against the real daemon
// gives the daemon's own counters, the generator's lateness and the
// end-to-end figures that cannot be bounded; then a shortened copy of the
// script is replayed in-process at three depths on clones of one primed
// twin, and each layer below predict is timed in isolation.
func (e *runEnv) runTraced(calibMS float64) (*report, error) {
	rep := newReport()
	val := map[string]float64{"machine.calib_ms": calibMS}

	// [A] the real daemon, briefly, at each rate step.
	share := e.cfg.seconds / 4 / float64(len(rateSteps))
	if e.cfg.epochs > 0 {
		share = 0
	}
	var diag *diagResult
	err := e.retrying("diag", func(tag string) (err error) {
		diag, err = e.runDiag(tag, share)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = diag.attempted, diag.failed
	rep.failures = diag.failures
	for k, v := range diag.val {
		val[k] = v
	}
	// Per-layer figures are reported as measured; this is what the machine
	// delivered while the daemon ran, for whoever wants them at reference speed.
	val["machine.speed"] = speedOf(e.speed.samples...)

	// [B] one primed twin, cloned per depth. From here on the process runs
	// on one CPU: Advance fans its monitors out over goroutines, and only
	// with them serialised is wall time CPU time, so that layer costs add
	// up to the total they are compared with.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base, err := e.primedTwin()
	if err != nil {
		return nil, err
	}
	// The untraced loopback pass doubles as the pilot that sizes the
	// shortened script: it runs for a tenth of --seconds, and the traced
	// depths then replay exactly the epochs it completed.
	origin := time.Now()
	pilot := e.cfg.seconds / 10
	if e.cfg.epochs > 0 {
		pilot = 0
	}
	untraced, err := e.replay(base, depthLoopback, pilot, e.cfg.epochs, false, origin)
	if err != nil {
		return nil, err
	}
	epochs := max(1, untraced.stats.epochs)
	var runs [3]*depthRun
	for d := depthLoopback; d <= depthDirect; d++ {
		if runs[d], err = e.replay(base, d, 0, epochs, true, origin); err != nil {
			return nil, fmt.Errorf("%s depth: %w", depthNames[d], err)
		}
		rep.attempted += runs[d].stats.attempted
		rep.failed += runs[d].stats.failed
		rep.failures = append(rep.failures, runs[d].stats.failures...)
	}
	loop, hand, direct := runs[depthLoopback], runs[depthHandler], runs[depthDirect]
	if n := len(direct.stats.ops); len(loop.stats.ops) != n || len(hand.stats.ops) != n || len(loop.spans) != n || len(hand.spans) != n {
		return nil, fmt.Errorf("depths disagree on the script: %d / %d / %d calls, %d / %d api spans",
			len(loop.stats.ops), len(hand.stats.ops), n, len(loop.spans), len(hand.spans))
	}
	if loop.digest != hand.digest {
		rep.failed++
		rep.failures = append(rep.failures, "loopback and handler depths served different bytes for the same script")
	}
	spans := buildSpans(loop, direct)
	if err := writeTrace(filepath.Join(e.cfg.outDir, e.w.name+".trace.jsonl"), spans); err != nil {
		rep.notes = append(rep.notes, "trace file not written: "+err.Error())
	}

	// [C] each layer below predict, in isolation, on its own clone.
	layerTwin, _, err := base.clone()
	if err != nil {
		return nil, err
	}
	per := time.Duration(e.cfg.seconds / 100 * float64(time.Second))
	per = min(max(per, 20*time.Millisecond), 300*time.Millisecond)
	e.depthMetrics(val, loop, hand, direct, untraced)
	costs, err := layerTwin.layerCosts(e.specs, e.w.warmup, per, direct.stats.outcomes)
	if err != nil {
		return nil, fmt.Errorf("layer timings: %w", err)
	}
	for k, v := range costs {
		val[k] = v
	}
	val["obs.scrape_ms"] = perCallUS(per, func() {
		req, _ := http.NewRequest(http.MethodGet, "/metrics", nil) // constant, valid arguments
		layerTwin.handler().ServeHTTP(discardWriter{}, req)
	}) / 1e3
	val["transport.echo_floor_us"], err = echoFloorUS(per, int(loop.bytes[0]), int(loop.bytes[1]))
	if err != nil {
		return nil, err
	}
	val["api.allocs.predict"] = e.predictAllocs(layerTwin)
	rep.notes = append(rep.notes, e.budget(val, direct)...)

	for _, m := range perLayer {
		rep.set(perLayer, m.name, val[m.name], 0, 1)
	}
	rep.digest = loop.digest
	rep.notes = append(rep.notes, fmt.Sprintf("traced replay: %d epochs, %d calls per depth; trace in %s",
		epochs, len(direct.stats.ops), filepath.Join(e.cfg.outDir, e.w.name+".trace.jsonl")))
	return rep, nil
}

// diagResult is what the short daemon run contributes.
type diagResult struct {
	val       map[string]float64
	attempted int
	failed    int
	failures  []string
}

// runDiag sets the real daemon up once and runs one phase per rate step
// (closed-loop workloads ignore the rate), restarting before the last.
func (e *runEnv) runDiag(tag string, phaseSeconds float64) (_ *diagResult, err error) {
	stk, err := e.startDaemonStack(tag)
	if err != nil {
		return nil, err
	}
	defer func() { err = stk.stopAfter(err) }()
	run := newScriptRun(e.w, e.seed, stk, e.truth)
	prime, err := run.prime()
	if err != nil {
		return nil, err
	}
	res := &diagResult{val: map[string]float64{}, attempted: prime.attempted, failed: prime.failed, failures: prime.failures}
	e.speed.sample()
	var phases []*phaseStats
	maxRate := 0.0
	for i, step := range rateSteps {
		if i == len(rateSteps)-1 {
			rs, err := run.restartChecked()
			if err != nil {
				return nil, err
			}
			res.val["ops.snapshot_ms"], res.val["ops.restore_s"] = rs.snapshotMS, rs.restoreS
		}
		run.rate = e.w.rate * step
		ph, err := run.phase(phaseSeconds, e.cfg.epochs)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
		e.speed.sample()
		res.attempted += ph.attempted
		res.failed += ph.failed
		res.failures = append(res.failures, ph.failures...)
		if run.rate > 0 && ph.failed == 0 && quantile(ph.lat[opPredict], 0.99) <= latencyLimitMS &&
			median(ph.late[len(ph.late)*9/10:]) <= backlogLimitMS {
			maxRate = run.rate
		}
	}
	mid := phases[1]
	text, status, err := stk.execs[0].metricsText()
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, wrongAnswer{fmt.Errorf("GET /metrics: status %d", status)}
	}
	m, err := parseMetricsText(text)
	if err != nil {
		res.attempted++
		res.failed++
		res.failures = append(res.failures, "GET /metrics does not parse: "+err.Error())
		m = metricsText{}
	}
	v := res.val
	v["api.non2xx"] = m.sum("http_requests_total") - m.sum("http_requests_total", `code="200"`)
	v["fleetsched.migrations"] = m.sum("fleetsched_migrations_total")
	if placed, unplaced := m.sum("fleetsched_placements_total"), m.sum("fleetsched_unplaced_jobs_total"); placed+unplaced > 0 {
		v["fleetsched.placed_share"] = placed / (placed + unplaced)
	}
	var late, sched, adv []float64
	for _, ph := range phases {
		sched = append(sched, ph.lat[opSchedule]...)
		adv = append(adv, ph.lat[opAdvance]...)
	}
	v["ops.predict_p99_ms"] = quantile(append(mid.lat[opPredict], mid.lat[opBatch]...), 0.99)
	late = append(late, mid.late...)
	v["client.late_ms_p99"] = quantile(late, 0.99)
	v["client.cpu_share"] = mid.clientCPU / mid.wall
	v["ops.schedule_p50_ms"] = median(sched)
	v["ops.advance_p99_ms"] = quantile(adv, 0.99)
	v["ops.max_rate_ok"] = maxRate
	v["ops.error_share"] = float64(res.failed) / float64(max(res.attempted, 1))
	return res, nil
}

// span is one line of a .trace.jsonl file.
type span struct {
	Req    int     `json:"req"`    // request id: the call's index in script order
	Op     string  `json:"op"`     // predict, batch, observe, ...
	Name   string  `json:"span"`   // transport, api or predict
	Parent string  `json:"parent"` // "" for transport
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	SelfUS float64 `json:"self_us"`
	// Source says where the extent was measured: transport and api at the
	// loopback depth (really nested); predict is the same call's duration
	// at the predict depth, laid inside its api span (see README.md).
	Source string `json:"source"`
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// buildSpans assembles transport -> api -> predict for every call. The
// predict span is clipped to its parent: a child never sticks out, and a
// self time is never negative.
func buildSpans(loop, direct *depthRun) []span {
	out := make([]span, 0, 3*len(loop.stats.ops))
	for k, o := range loop.stats.ops {
		api := loop.spans[k]
		// The wrapper and the client read the same monotonic clock, so the
		// api span can only leave its transport span by rounding.
		api[0], api[1] = max(api[0], o.start), min(api[1], o.end)
		api[1] = max(api[1], api[0])
		pd := direct.stats.ops[k].end - direct.stats.ops[k].start
		pd = min(pd, api[1]-api[0])
		ps := api[0] + (api[1]-api[0]-pd)/2
		op := opNames[o.kind]
		out = append(out,
			span{k, op, "transport", "", us(o.start), us(o.end), us(o.end - o.start - (api[1] - api[0])), "loopback"},
			span{k, op, "api", "transport", us(api[0]), us(api[1]), us(api[1] - api[0] - pd), "loopback"},
			span{k, op, "predict", "api", us(ps), us(ps + pd), us(pd), "predict-depth"},
		)
	}
	return out
}

func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err = enc.Encode(&spans[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// depthMetrics turns the replays into the transport, api, stage and share
// figures. Differences between depths are taken call by call: determinism
// makes call k the same work at every depth. At both HTTP depths the
// wrapper's span is the time inside the api handler; what the client saw
// beyond it at the handler depth is the harness's own work (building the
// request, decoding the reply) and is taken out of the loopback figures, so
// transport means the socket and net/http, not the generator.
func (e *runEnv) depthMetrics(val map[string]float64, loop, hand, direct, untraced *depthRun) {
	var transport []float64
	var apiSelf [numOpKinds][]float64
	var tDirect, tAdvance float64
	for k, o := range loop.stats.ops {
		harness := us(hand.stats.ops[k].end-hand.stats.ops[k].start) - us(hand.spans[k][1]-hand.spans[k][0])
		transport = append(transport, us(o.end-o.start)-harness-us(loop.spans[k][1]-loop.spans[k][0]))
		di := us(direct.stats.ops[k].end - direct.stats.ops[k].start)
		apiSelf[o.kind] = append(apiSelf[o.kind], (us(hand.spans[k][1]-hand.spans[k][0])-di)/float64(o.items))
		if o.kind == opAdvance {
			tAdvance += di
		}
		tDirect += di
	}
	// A long call (an advance that refits a mixture) takes milliseconds
	// more or less from one execution to the next, which would drown the
	// microseconds of api time if the per-call differences were summed.
	// Totals are therefore built from per-kind medians times counts.
	tTransport := median(transport) * float64(len(transport))
	// A layer's self time cannot be negative; on the few heavy fleet-wide
	// calls the difference is all noise, and is floored at zero.
	tAPI := 0.0
	for k := range apiSelf {
		tAPI += max(median(apiSelf[k]), 0) * float64(direct.stats.calls[k]) * float64(batchItems(opKind(k)))
	}
	tLoop := tDirect + tAPI + tTransport
	val["transport.self_us"] = median(transport)
	val["transport.req_bytes"], val["transport.resp_bytes"] = loop.bytes[0], loop.bytes[1]
	val["api.self_us.predict"] = median(apiSelf[opPredict])
	val["api.self_us.batch_item"] = median(apiSelf[opBatch])
	val["api.self_us.observe"] = median(apiSelf[opObserve])
	m := direct.metrics
	stageSum := func(stage string) float64 { // microseconds
		return m.sum("predict_stage_duration_seconds_sum", `stage="`+stage+`"`) * 1e6
	}
	for _, st := range []string{"monitor_read", "forecast", "schedule", "model_eval", "dist_grid"} {
		val["predict.stage_us."+st] = m.histMeanUS("predict_stage_duration_seconds", `stage="`+st+`"`)
	}
	hits, misses := m.sum("predict_cache_hits_total"), m.sum("predict_cache_misses_total")
	if hits+misses > 0 {
		val["predict.cache_hit_share"] = hits / (hits + misses)
	}
	val["predict.grid_evals"] = distSamples * m.sum("predict_stage_duration_seconds_count", `stage="dist_grid"`)
	if tDirect > 0 {
		val["share.nws_modal_simenv"] = (tAdvance + stageSum("monitor_read") + stageSum("forecast")) / tDirect
		val["share.grid_structural"] = (stageSum("dist_grid") + stageSum("model_eval")) / tDirect
	}
	if tLoop > 0 {
		val["share.transport_api_obs"] = (tAPI + tTransport) / tLoop
	}
	// The pilot ran the same calls untraced. Medians per kind of call, for
	// the reason above: the overhead is a fraction of a microsecond.
	var traced, plain float64
	for k := range loop.stats.lat {
		n := float64(loop.stats.calls[k])
		traced += n * median(loop.stats.lat[k])
		plain += n * median(untraced.stats.lat[k])
	}
	if plain > 0 {
		val["trace.overhead_share"] = (traced - plain) / plain
	}
}

// batchItems is how many predictions one call of a kind carries.
func batchItems(k opKind) int {
	if k == opBatch {
		return fleetBatch
	}
	return 1
}

// distSamples is the number of structural-model evaluations behind one
// distribution grid (predict's Latin-hypercube row count).
const distSamples = 64

// budget multiplies each isolated layer cost by how often the replay needed
// it and compares the sum with the predict-depth total: what the layers do
// not explain is the residual. It returns the table, for the text output.
func (e *runEnv) budget(val map[string]float64, direct *depthRun) []string {
	st, m := direct.stats, direct.metrics
	total := 0.0
	for _, o := range st.ops {
		total += us(o.end - o.start)
	}
	monitors := 0.0
	specs := fleetSpecs(e.w.tenants, e.seed, e.w.warmup)
	for _, s := range specs {
		monitors += float64(len(s.Machines) + bwMonitors)
	}
	monitors /= float64(len(specs))
	val["nws.monitors"] = monitors
	samples := (float64(st.ticks) + float64(st.fleetAdv*e.w.tenants)) * monitors
	val["nws.samples"] = samples
	hits, misses := m.sum("predict_cache_hits_total"), m.sum("predict_cache_misses_total")
	grids := m.sum("predict_stage_duration_seconds_count", `stage="dist_grid"`)
	levelHits := max(float64(st.levelReqs)-grids, 0)
	rows := []struct {
		layer string
		count float64
		cost  float64 // us per unit
	}{
		{"nws+modal+simenv: monitor samples x nws.sample_us", samples, val["nws.sample_us"]},
		{"predict: cache misses x predict.miss_us", misses, val["predict.miss_us"]},
		{"structural: grids x predict.grid_us", grids, val["predict.grid_us"]},
		{"predict: cache hits x predict.hit_us", hits, val["predict.hit_us"]},
		{"calib: hits with levels x predict.overlay_q_us", levelHits, val["predict.overlay_q_us"]},
		{"calib: observes x predict.observe_us", float64(st.calls[opObserve]), val["predict.observe_us"]},
		{"predict: calls x predict.lookup_ns", float64(st.attempted), val["predict.lookup_ns"] / 1e3},
		{"fleetsched: jobs x fleetsched.submit_us_per_job", float64(st.jobs), val["fleetsched.submit_us_per_job"]},
	}
	if total <= 0 {
		return nil
	}
	explained := 0.0
	lines := []string{fmt.Sprintf("budget: predict-depth total %.1f ms over %d calls (%.1f us/call)", total/1e3, st.attempted, total/float64(st.attempted))}
	for _, r := range rows {
		explained += r.count * r.cost
		lines = append(lines, fmt.Sprintf("budget:   %-52s %9.0f x %9.3f us = %9.1f ms  %5.1f%%", r.layer, r.count, r.cost, r.count*r.cost/1e3, 100*r.count*r.cost/total))
	}
	val["budget.residual_share"] = 1 - explained/total
	return append(lines, fmt.Sprintf("budget:   %-52s %35.1f ms  %5.1f%%", "residual (total - sum of the rows)", (total-explained)/1e3, 100*(1-explained/total)))
}

// predictAllocs is the heap allocations one POST /predict costs inside the
// api layer: through the handler, minus the same call at predict depth,
// minus what the harness's own request and recorder allocate.
func (e *runEnv) predictAllocs(t *twin) float64 {
	sh := shapes[hotShapes[0]]
	name := tenantName(0)
	via := func(h http.Handler) func() {
		x := newHTTPExec(&http.Client{Transport: handlerTransport{h}}, "http://twin")
		return func() { _, _, _ = x.predict(name, sh, false) }
	}
	noop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write([]byte("{}"))
	})
	cur := t
	direct := directOver(&cur)
	return allocsPerCall(via(t.handler())) - allocsPerCall(via(noop)) -
		allocsPerCall(func() { _, _, _ = direct.predict(name, sh, false) })
}

func allocsPerCall(f func()) float64 {
	const n = 200
	f() // warm pools and caches
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / n
}

// echoFloorUS is the transport floor: a bare net/http server over loopback
// that reads a request of the workload's mean size and answers with a body
// of its mean response size, driven by the same one-connection client —
// minus the same exchange with the handler called directly, so that, like
// transport.self_us, it is what the socket and net/http add.
func echoFloorUS(budget time.Duration, reqBytes, respBytes int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	resp := make([]byte, max(respBytes, 1))
	for i := range resp {
		resp[i] = 'x'
	}
	echo := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write(resp)
	})
	srv := &http.Server{Handler: echo}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	body := make([]byte, max(reqBytes, 1))
	var callErr error
	cost := func(x *httpExec) float64 {
		defer x.client.CloseIdleConnections()
		return perCallUS(budget/2, func() {
			if _, err := x.call(http.MethodPost, "/echo", body, false); err != nil {
				callErr = err
			}
		})
	}
	floor := cost(newHTTPExec(newConnClient(), "http://"+ln.Addr().String())) -
		cost(newHTTPExec(&http.Client{Transport: handlerTransport{echo}}, "http://echo"))
	return floor, callErr
}
