// Command loadtest drives a predictd instance with a concurrent
// closed-loop workload and reports serving throughput and latency. Each
// worker loops: POST /predict, then (per the configured mix) POST /observe
// feeding the measured runtime back, and POST /advance stepping the
// virtual clock. Latency is summarized per operation as a stochastic
// mean ± 2σ interval (the paper's own representation) plus exact p50/p95/
// p99 sample quantiles.
//
// With no -url, loadtest builds the daemon's full stack in-process
// (simulated platforms, shared metrics registry) behind an ephemeral
// httptest server — the mode the CI smoke uses. After the run it scrapes
// GET /metrics and verifies the exposition parses.
//
// Usage:
//
//	loadtest -duration 5 -workers 8 -observe 0.8 -advance 0.1
//	loadtest -url http://localhost:8080 -duration 30
//	loadtest -duration 3 -batch 16          # drive POST /predict/batch
//	loadtest -platforms 1000 -kill-restore  # multi-tenant fleet mode
//	loadtest -duration 3 -sched 0.2         # mix in POST /schedule placements
//
// With -sched FRAC, that fraction of worker loops also submits a one-job
// POST /schedule placement, and the run ends with a GET /schedule/status
// sweep whose job population is reported (and must parse — a smoke of the
// fleet-scheduler surface under concurrency).
//
// With -platforms N, the in-process server hosts a fleet of N declarative
// tenant specs (lazily instantiated on first request) instead of the two
// paper platforms, and workers spread requests across the whole fleet.
// With -kill-restore, the driver snapshots the server mid-run via
// POST /snapshot, tears it down, restores a new server from the image,
// and the workload continues against the restored fleet — the run must
// still finish with zero errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"prodpred/internal/api"
	"prodpred/internal/obs"
	"prodpred/internal/predict"
	"prodpred/internal/stats"
	"prodpred/internal/stochastic"
	"prodpred/internal/workload"
)

func main() {
	cfg := config{}
	flag.StringVar(&cfg.URL, "url", "", "target daemon base URL (empty = in-process server)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed for the in-process platforms and the workload mix")
	flag.Float64Var(&cfg.Warmup, "warmup", 600, "in-process NWS warmup (virtual seconds)")
	flag.Float64Var(&cfg.Duration, "duration", 5, "wall-clock seconds to drive load")
	flag.IntVar(&cfg.Workers, "workers", 8, "concurrent closed-loop workers")
	flag.IntVar(&cfg.N, "n", 200, "SOR problem size per /predict request")
	flag.IntVar(&cfg.Iterations, "iterations", 5, "SOR iterations per /predict request")
	flag.Float64Var(&cfg.ObserveFrac, "observe", 0.8, "fraction of predictions fed back via /observe")
	flag.Float64Var(&cfg.AdvanceFrac, "advance", 0.1, "fraction of loops issuing a /advance clock step")
	flag.IntVar(&cfg.Batch, "batch", 0, "requests per POST /predict/batch call (0 = use POST /predict)")
	flag.IntVar(&cfg.Platforms, "platforms", 0, "host a fleet of N lazily-instantiated tenant specs instead of the two paper platforms")
	flag.BoolVar(&cfg.KillRestore, "kill-restore", false, "snapshot, kill, and restore the in-process server mid-run")
	flag.StringVar(&cfg.Scenario, "scenario", "", "drive the in-process platforms with this workload-library scenario instead of the paper load models")
	flag.Float64Var(&cfg.SchedFrac, "sched", 0, "fraction of loops also submitting a one-job POST /schedule placement")
	flag.Parse()

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadtest:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// config is the full knob set of one load-test run.
type config struct {
	URL         string
	Seed        int64
	Warmup      float64
	Duration    float64
	Workers     int
	N           int
	Iterations  int
	ObserveFrac float64
	AdvanceFrac float64
	Batch       int
	Platforms   int     // fleet size (0 = the two paper platforms)
	KillRestore bool    // snapshot/kill/restore the in-process server mid-run
	Scenario    string  // workload-library scenario for the in-process platforms
	SchedFrac   float64 // fraction of loops also issuing a POST /schedule
}

// opStats summarizes one operation's latency sample: the stochastic
// mean ± 2σ interval in milliseconds plus exact sample quantiles.
type opStats struct {
	Count  int
	RPS    float64
	MeanMS float64 // sample mean
	TwoSig float64 // ± half-width (2σ)
	P50MS  float64
	P95MS  float64
	P99MS  float64
}

// result is the aggregated outcome of a run.
type result struct {
	Target         string
	Duration       float64 // actual wall seconds driven
	Workers        int
	Batch          int // requests per batch call (0 = single-predict mode)
	Total          int // individual requests (each batch item counts once)
	Errors         int
	Throughput     float64 // total requests per wall second
	Ops            map[string]opStats
	MetricFamilies int // families on GET /metrics (0 if the scrape failed)
	Platforms      int // fleet size (0 = the two paper platforms)
	Restores       int // mid-run snapshot/kill/restore cycles completed
	SchedJobs      int // jobs reported by the final GET /schedule/status sweep
}

// serverHandle is the workload's swappable view of the target server.
// Workers hold the read lock for one whole closed-loop iteration (predict
// through observe), so the kill/restore sequence — which takes the write
// lock — only ever runs between iterations: no prediction is issued on the
// old server and observed on the restored one before the snapshot captured
// it.
type serverHandle struct {
	mu       sync.RWMutex
	target   string
	ts       *httptest.Server // nil when driving an external -url daemon
	restores int
}

// killRestore snapshots the in-process server over its own HTTP API, tears
// it down, and brings up a new server restored from the image — the
// operator's crash-recovery drill, compressed into one run.
func (h *serverHandle) killRestore() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	resp, err := http.Post(h.target+"/snapshot", "application/octet-stream", nil)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("snapshot body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot: status %d: %s", resp.StatusCode, snap)
	}
	h.ts.Close()
	metrics := obs.NewRegistry()
	reg, err := predict.ReadSnapshot(bytes.NewReader(snap), predict.RegistryOptions{Metrics: metrics})
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	h.ts = httptest.NewServer(api.NewHandler(reg, api.Options{Metrics: metrics}))
	h.target = h.ts.URL
	h.restores++
	return nil
}

// run drives the closed-loop workload and aggregates the latency samples.
func run(cfg config) (result, error) {
	if cfg.Workers < 1 || cfg.Duration <= 0 {
		return result{}, fmt.Errorf("need workers >= 1 and duration > 0")
	}
	h := &serverHandle{target: cfg.URL}
	if h.target == "" {
		ts, err := inProcess(cfg)
		if err != nil {
			return result{}, err
		}
		h.ts, h.target = ts, ts.URL
	}
	if cfg.KillRestore && h.ts == nil {
		return result{}, fmt.Errorf("-kill-restore needs the in-process server (drop -url)")
	}

	type sample struct {
		op    string
		ms    float64
		items int // requests this sample accounts for (batch > 1)
		ok    bool
	}
	var (
		mu      sync.Mutex
		samples []sample
	)
	deadline := time.Now().Add(time.Duration(cfg.Duration * float64(time.Second)))
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			client := &http.Client{Timeout: 30 * time.Second}
			var local []sample
			for time.Now().Before(deadline) {
				h.mu.RLock()
				target := h.target
				platform := fmt.Sprintf("platform%d", 1+rng.Intn(2))
				if cfg.Platforms > 0 {
					platform = fmt.Sprintf("tenant-%04d", rng.Intn(cfg.Platforms))
				}
				var pr api.PredictResponse
				var ms float64
				var err error
				if cfg.Batch > 1 {
					pr, ms, err = doBatch(client, target, platform, cfg)
					local = append(local, sample{"batch", ms, cfg.Batch, err == nil})
				} else {
					pr, ms, err = doPredict(client, target, platform, cfg)
					local = append(local, sample{"predict", ms, 1, err == nil})
				}
				if err == nil && rng.Float64() < cfg.ObserveFrac {
					ms, err = doObserve(client, target, platform, pr)
					local = append(local, sample{"observe", ms, 1, err == nil})
				}
				if rng.Float64() < cfg.AdvanceFrac {
					ms, err := doAdvance(client, target, platform)
					local = append(local, sample{"advance", ms, 1, err == nil})
				}
				if cfg.SchedFrac > 0 && rng.Float64() < cfg.SchedFrac {
					ms, err := doSchedule(client, target, cfg, w)
					local = append(local, sample{"schedule", ms, 1, err == nil})
				}
				h.mu.RUnlock()
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(w)
	}
	killErr := make(chan error, 1)
	if cfg.KillRestore {
		go func() {
			// Halfway through the run: enough traffic before the snapshot to
			// make the image non-trivial, enough after to prove the restored
			// fleet serves.
			time.Sleep(time.Duration(cfg.Duration * float64(time.Second) / 2))
			killErr <- h.killRestore()
		}()
	} else {
		killErr <- nil
	}
	// Wait for every worker to finish before touching the server again: the
	// metrics scrape below must not race in-flight requests, and the
	// in-process server is closed only after the scrape so no worker ever
	// sees a connection torn down mid-call (the old error-count flake).
	wg.Wait()
	if err := <-killErr; err != nil {
		return result{}, err
	}

	res := result{
		Target:    h.target,
		Duration:  cfg.Duration,
		Workers:   cfg.Workers,
		Batch:     cfg.Batch,
		Platforms: cfg.Platforms,
		Restores:  h.restores,
		Ops:       map[string]opStats{},
	}
	byOp := map[string][]float64{}
	for _, s := range samples {
		res.Total += s.items
		if !s.ok {
			res.Errors++
			continue
		}
		byOp[s.op] = append(byOp[s.op], s.ms)
	}
	res.Throughput = float64(res.Total) / cfg.Duration
	for op, ms := range byOp {
		v, err := stochastic.FromSample(ms)
		if err != nil {
			continue
		}
		p50, _ := stats.Quantile(ms, 0.5)
		p95, _ := stats.Quantile(ms, 0.95)
		p99, _ := stats.Quantile(ms, 0.99)
		res.Ops[op] = opStats{
			Count:  len(ms),
			RPS:    float64(len(ms)) / cfg.Duration,
			MeanMS: v.Mean,
			TwoSig: v.Spread,
			P50MS:  p50, P95MS: p95, P99MS: p99,
		}
	}
	res.MetricFamilies = scrapeMetrics(h.target)
	if cfg.SchedFrac > 0 {
		n, err := schedStatus(h.target)
		if err != nil {
			return result{}, fmt.Errorf("schedule/status sweep: %w", err)
		}
		res.SchedJobs = n
	}
	if h.ts != nil {
		h.ts.Close()
	}
	return res, nil
}

// inProcess builds the daemon's serving stack in this process: both
// simulated platforms on a shared metrics registry behind api.NewHandler,
// or — with cfg.Platforms > 0 — a fleet of that many declarative tenant
// specs. Every platform is a spec registered cold, so instantiation cost
// lands on its first request.
func inProcess(cfg config) (*httptest.Server, error) {
	var specs []predict.PlatformSpec
	switch {
	case cfg.Scenario != "" && cfg.Platforms > 0:
		return nil, fmt.Errorf("-scenario and -platforms are mutually exclusive")
	case cfg.Scenario != "":
		if _, ok := workload.Lookup(cfg.Scenario); !ok {
			return nil, fmt.Errorf("unknown scenario %q (have %v)", cfg.Scenario, workload.Names())
		}
		// Keep the paper platform names so the worker routing is unchanged;
		// only the load driving them comes from the scenario library.
		for i, id := range []int{1, 2} {
			specs = append(specs, predict.PlatformSpec{
				Name: fmt.Sprintf("platform%d", id),
				Machines: []predict.MachineSpec{
					{Name: "m0", Kind: "sparc5"},
					{Name: "m1", Kind: "sparc10"},
					{Name: "m2", Kind: "ultra"},
					{Name: "m3", Kind: "ultra"},
				},
				CPU:    []predict.LoadSpec{{Kind: "scenario", Scenario: cfg.Scenario}},
				Net:    &predict.LoadSpec{Kind: "ethernet-contention"},
				Seed:   cfg.Seed + int64(i)*1013,
				Warmup: cfg.Warmup,
			})
		}
	case cfg.Platforms > 0:
		specs = predict.FleetSpecs(cfg.Platforms, cfg.Seed)
	default:
		for _, id := range []int{1, 2} {
			spec, err := predict.SimulatedSpec(id, cfg.Seed)
			if err != nil {
				return nil, err
			}
			spec.Warmup = cfg.Warmup
			specs = append(specs, spec)
		}
	}
	metrics := obs.NewRegistry()
	reg := predict.NewRegistryWith(predict.RegistryOptions{Metrics: metrics})
	for _, spec := range specs {
		if err := reg.RegisterSpec(spec); err != nil {
			return nil, err
		}
	}
	return httptest.NewServer(api.NewHandler(reg, api.Options{Metrics: metrics})), nil
}

func doPredict(client *http.Client, target, platform string, cfg config) (api.PredictResponse, float64, error) {
	var pr api.PredictResponse
	ms, err := timedPost(client, target+"/predict",
		api.PredictRequest{Platform: platform, N: cfg.N, Iterations: cfg.Iterations}, &pr)
	return pr, ms, err
}

// doBatch issues one POST /predict/batch of cfg.Batch identical requests
// and returns the first item's prediction (for the observe feedback step).
// Any per-item error fails the whole sample — batch runs should be as
// clean as single-predict runs.
func doBatch(client *http.Client, target, platform string, cfg config) (api.PredictResponse, float64, error) {
	req := api.BatchPredictRequest{Requests: make([]api.PredictRequest, cfg.Batch)}
	for i := range req.Requests {
		req.Requests[i] = api.PredictRequest{Platform: platform, N: cfg.N, Iterations: cfg.Iterations}
	}
	var br api.BatchPredictResponse
	ms, err := timedPost(client, target+"/predict/batch", req, &br)
	if err != nil {
		return api.PredictResponse{}, ms, err
	}
	if br.Errors > 0 || len(br.Responses) != cfg.Batch {
		return api.PredictResponse{}, ms, fmt.Errorf("batch: %d item errors in %d responses", br.Errors, len(br.Responses))
	}
	first := br.Responses[0]
	if first.PredictResponse == nil {
		return api.PredictResponse{}, ms, fmt.Errorf("batch: first item has no prediction")
	}
	return *first.PredictResponse, ms, nil
}

func doObserve(client *http.Client, target, platform string, pr api.PredictResponse) (float64, error) {
	// Close the loop with the predicted mean as the "measured" runtime — a
	// well-calibrated steady state that exercises the full feedback path.
	return timedPost(client, target+"/observe",
		api.ObserveRequest{Platform: platform, ID: pr.ID, Actual: pr.Mean}, nil)
}

func doAdvance(client *http.Client, target, platform string) (float64, error) {
	return timedPost(client, target+"/advance",
		api.AdvanceRequest{Platform: platform, Seconds: 5}, nil)
}

// doSchedule submits a one-job placement; a job the scheduler cannot place
// anywhere fails the sample.
func doSchedule(client *http.Client, target string, cfg config, worker int) (float64, error) {
	var sr api.ScheduleResponse
	ms, err := timedPost(client, target+"/schedule", api.ScheduleRequest{
		Jobs: []api.ScheduleJob{{
			Name:       fmt.Sprintf("lt-w%d", worker),
			N:          cfg.N,
			Iterations: cfg.Iterations,
		}},
	}, &sr)
	if err != nil {
		return ms, err
	}
	if sr.Unplaced > 0 || len(sr.Placements) != 1 {
		return ms, fmt.Errorf("schedule: %d placements, %d unplaced", len(sr.Placements), sr.Unplaced)
	}
	return ms, nil
}

// schedStatus sweeps GET /schedule/status after the run and returns the
// submitted-job count — the status body must parse under whatever state the
// concurrent workers left behind.
func schedStatus(target string) (int, error) {
	resp, err := http.Get(target + "/schedule/status")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var st struct {
		Submitted int `json:"submitted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.Submitted, nil
}

// timedPost posts a JSON body and decodes the response, returning the
// request's wall-clock latency in milliseconds. The body is always drained
// to EOF before close so the keep-alive connection returns to the pool —
// half-read bodies force new connections and, under load, sporadic dial
// errors that showed up as a nonzero error count.
func timedPost(client *http.Client, url string, body, out any) (float64, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	ms := float64(time.Since(start).Microseconds()) / 1000
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return ms, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, msg)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return ms, err
		}
	}
	return ms, nil
}

// scrapeMetrics fetches GET /metrics and returns the number of metric
// families in a parseable exposition; 0 when the scrape or parse fails
// (e.g. an older daemon without the endpoint).
func scrapeMetrics(target string) int {
	resp, err := http.Get(target + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0
	}
	fams, _, err := obs.ParseText(resp.Body)
	if err != nil {
		return 0
	}
	return len(fams)
}

// print renders the human report: one row per operation, ops sorted for a
// stable layout.
func (r result) print(w io.Writer) {
	fmt.Fprintf(w, "loadtest: %d workers for %.1fs against %s\n", r.Workers, r.Duration, r.Target)
	if r.Platforms > 0 {
		fmt.Fprintf(w, "fleet: %d tenant platforms, %d kill/restore cycles\n", r.Platforms, r.Restores)
	}
	fmt.Fprintf(w, "total %d requests (%.1f req/s), %d errors\n", r.Total, r.Throughput, r.Errors)
	ops := make([]string, 0, len(r.Ops))
	for op := range r.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprintf(w, "%-8s %8s %8s %18s %8s %8s %8s\n",
		"op", "count", "req/s", "mean±2σ (ms)", "p50", "p95", "p99")
	for _, op := range ops {
		s := r.Ops[op]
		fmt.Fprintf(w, "%-8s %8d %8.1f %9.2f ± %6.2f %8.2f %8.2f %8.2f\n",
			op, s.Count, s.RPS, s.MeanMS, s.TwoSig, s.P50MS, s.P95MS, s.P99MS)
	}
	if r.MetricFamilies > 0 {
		fmt.Fprintf(w, "metrics: %d families exposed on /metrics\n", r.MetricFamilies)
	}
	if r.SchedJobs > 0 {
		fmt.Fprintf(w, "scheduler: %d jobs submitted via /schedule\n", r.SchedJobs)
	}
}
