package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metricDef is one reported figure. endToEnd and perLayer are the single
// source of the names and units a run reports; bench_test.go holds
// BENCHMARK.json to them.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the daemon sees. Every workload reports every
// one of them (the driver's contract), so only figures that exist on all
// four workloads are here; the fleet-only and quantised ones are per-layer
// diagnostics (see README.md, "Demoted").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pred_per_s", "1/s"},
	{"cpu_us_per_pred", "us"},
	{"predict_p50_ms", "ms"},
	{"observe_p50_ms", "ms"},
	{"advance_p50_ms", "ms"},
	{"rss_peak_mb", "MB"},
	{"capture95", "ratio"},
	{"relwidth95", "ratio"},
}

// atReferenceSpeed names the end-to-end figures that move with machine speed
// and are therefore reported at reference speed (speed.go), set-up by
// set-up; the others are reported as measured.
var atReferenceSpeed = map[string]bool{
	"setup_s": true, "pred_per_s": true, "cpu_us_per_pred": true,
	"predict_p50_ms": true, "observe_p50_ms": true, "advance_p50_ms": true,
}

// subRuns is how many times one run sets the daemon up. Each set-up is
// timed (setup_s is their median) and then measured for an equal share of
// --seconds, so no set-up is spent only on being timed.
const subRuns = 3

// runTimeout bounds one whole run: a hung daemon fails the command.
// buildTimeout bounds the build of cmd/predictd before it.
const (
	runTimeout   = 170 * time.Second
	buildTimeout = 12 * time.Minute
)

// daemonTries is how often one piece of work against the real daemon (a
// sub-run, the traced run's diagnostic pass) is set up and run before the
// machine's failure to carry it out fails the command.
const daemonTries = 3

// retrying runs f, and runs it again on a fresh daemon when it fails for a
// reason that is the machine's and not the daemon's (wrongAnswer): on a
// shared host a run in a hundred loses a process to the host or waits out a
// timeout, and the repeat costs a few seconds where a failed run costs the
// whole check. A wrong answer is never repeated, every repeat is reported on
// standard error with its reason, and the figures of an abandoned try are
// dropped whole. tag names the try's daemon logs.
func (e *runEnv) retrying(what string, f func(tag string) error) error {
	for try := 1; ; try++ {
		tag := what
		if try > 1 {
			tag = fmt.Sprintf("%s-try%d", what, try)
		}
		err := f(tag)
		var wrong wrongAnswer
		if err == nil || try == daemonTries || errors.As(err, &wrong) || e.ctx.Err() != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench run %s: %s, try %d of %d: %v; setting the daemon up again\n", e.w.name, what, try, daemonTries, err)
	}
}

type runConfig struct {
	root     string
	workDir  string
	outDir   string
	workload string
	seed     int64
	seconds  float64
	epochs   int // > 0: phases of exactly this many epochs instead of a duration
	trace    int
	verbose  bool
}

// result is the machine-read last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one line of <out>/runs.jsonl, what `compare` reads.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Epochs    int                    `json:"epochs,omitempty"`
	Digest    string                 `json:"digest"`
	CalibMS   float64                `json:"machine_calib_ms"`
	Speed     float64                `json:"machine_speed"` // over the whole run; 1 = the reference box at its best
	KernelMS  []float64              `json:"kernel_ms"`     // every sample of the reference kernel, in order
	LoadAvg   float64                `json:"loadavg"`
	NProc     int                    `json:"nproc"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Spread    map[string]float64     `json:"spread,omitempty"`
	Samples   map[string]int         `json:"samples,omitempty"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var cfg runConfig
	fs.StringVar(&cfg.root, "root", "", "repository checkout to build predictd from (default: the directory holding bench/)")
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four, one after another)")
	fs.Int64Var(&cfg.seed, "seed", 1, "script and fleet seed")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "measured seconds per run, split evenly over the measured phases")
	fs.IntVar(&cfg.epochs, "epochs", 0, "run phases of exactly this many epochs instead of --seconds: counts and digest then repeat exactly")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics against the real daemon; 1: per-layer metrics from the traced in-process replay")
	fs.StringVar(&cfg.outDir, "out", "", "directory for runs.jsonl and <workload>.trace.jsonl (default <root>/bench/out)")
	fs.BoolVar(&cfg.verbose, "v", false, "also print the per-phase figures behind each median")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench run: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	root, err := findRoot(cfg.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench run:", err)
		return 2
	}
	cfg.root = root
	cfg.workDir = filepath.Join(root, ".bench_build")
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(root, "bench", "out")
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	code := 0
	for _, name := range names {
		c := cfg
		c.workload = name
		if err := runOne(c); err != nil {
			fmt.Fprintf(os.Stderr, "bench run %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// findRoot locates the checkout: the flag, else the working directory or
// its parent — whichever holds cmd/predictd next to a go.mod.
func findRoot(flagged string) (string, error) {
	cands := []string{flagged}
	if flagged == "" {
		cands = []string{".", ".."}
	}
	for _, c := range cands {
		abs, err := filepath.Abs(c)
		if err != nil {
			continue
		}
		if isFile(filepath.Join(abs, "go.mod")) && isFile(filepath.Join(abs, "cmd", "predictd", "main.go")) {
			return abs, nil
		}
	}
	return "", fmt.Errorf("no prodpred checkout (go.mod + cmd/predictd) at %v: the benchmark measures the tree it sits in", cands)
}

func isFile(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.Mode().IsRegular()
}

// runOne runs one workload once and prints its metrics; the last line of
// standard output is the machine-read result.
func runOne(cfg runConfig) (err error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	load := loadAverage()
	if load > 0.5*float64(nproc) {
		fmt.Fprintf(os.Stderr, "bench: WARNING: load average %.2f exceeds 0.5 x %d CPUs; timings will be noisy\n", load, nproc)
	}
	// Whatever ends the run — success, failure, timeout — no child stays.
	defer stopAllChildren()
	// Started before the build, so that both CPUs have been busy for a while
	// when the first daemon is spawned: after an idle spell this box takes
	// seconds of load before two busy virtual CPUs get two CPUs' worth. Not
	// fatal: without the spinner the run is the same run, only noisier.
	if _, err := startKeepAwake(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	// The first build in a checkout compiles the standard library too; it
	// gets its own, longer allowance, and the run's clock starts after it.
	buildCtx, cancelBuild := context.WithTimeout(context.Background(), buildTimeout)
	bin, err := buildDaemon(buildCtx, cfg.root, cfg.workDir)
	cancelBuild()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	go func() {
		<-ctx.Done()
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "bench run %s: no result within %v; killing the daemon\n", w.name, runTimeout)
			stopAllChildren()
			os.Exit(1)
		}
	}()
	tmp := filepath.Join(cfg.workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return err
	}
	// A failed run leaves its fleet file, snapshots and daemon logs behind
	// for the post-mortem.
	defer func() {
		if err == nil {
			os.RemoveAll(dir)
		} else {
			fmt.Fprintf(os.Stderr, "bench run %s: the run's files are kept in %s\n", w.name, dir)
		}
	}()
	env := &runEnv{ctx: ctx, cfg: cfg, w: w, bin: bin, dir: dir, speed: &speedProbe{}}
	if err := env.useFleet(0); err != nil {
		return err
	}
	calib := machineCalibMS()

	var rep *report
	if cfg.trace == 0 {
		rep, err = env.runEndToEnd()
	} else {
		rep, err = env.runTraced(calib)
	}
	if err != nil {
		return err
	}
	rep.print(os.Stdout, w, cfg)
	rec := runRecord{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Epochs: cfg.epochs,
		Digest: rep.digest, CalibMS: calib, LoadAvg: load, NProc: nproc,
		Attempted: rep.attempted, Failed: rep.failed,
		Speed: speedOf(env.speed.samples...), KernelMS: env.speed.samples,
		Metrics: rep.metrics, Spread: rep.spread, Samples: rep.samples,
	}
	if err := appendRecord(cfg.outDir, rec); err != nil {
		fmt.Fprintf(os.Stderr, "bench: could not record the run in %s: %v\n", cfg.outDir, err)
	}
	out, err := json.Marshal(result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if rep.failed > 0 {
		first := ""
		if len(rep.failures) > 0 {
			first = "; the first: " + rep.failures[0]
		}
		return fmt.Errorf("%d of %d calls failed or were invalid (error_share %.6f)%s", rep.failed, rep.attempted, float64(rep.failed)/float64(rep.attempted), first)
	}
	return nil
}

func appendRecord(dir string, rec runRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runEnv is what every part of one run shares.
type runEnv struct {
	ctx context.Context
	cfg runConfig
	w   *workload
	bin string
	dir string
	// The fleet in use: its seed, its -specs file and its ground truth.
	seed  int64
	specs []byte
	truth truthFn
	speed *speedProbe
}

// useFleet draws fleet number sub of the run from --seed. An end-to-end run
// sets up subRuns daemons and gives each its own fleet and script, so one
// run's figures average over three fleets: how wide a tenant's intervals are
// or what a tick costs depends on the load regime its traces are in, and
// over single fleets of 8 tenants relwidth95 spread 21% across ten seeds.
// The traced run uses fleet 0.
func (e *runEnv) useFleet(sub int) error {
	e.seed = e.cfg.seed*subRuns + int64(sub)
	e.specs = marshalSpecs(fleetSpecs(e.w.tenants, e.seed, e.w.warmup))
	var err error
	e.truth, err = newTruth(e.specs)
	return err
}

// report is a finished run: the metrics by name plus what the text output
// prints beside them.
type report struct {
	metrics   map[string]metricValue
	spread    map[string]float64 // IQR over the run's phases or sub-runs
	samples   map[string]int
	order     []string
	attempted int
	failed    int
	digest    string
	notes     []string
	detail    []string // per-phase figures, printed with -v
	failures  []string
}

func newReport() *report {
	return &report{metrics: map[string]metricValue{}, spread: map[string]float64{}, samples: map[string]int{}}
}

// set records one metric of the list defs, which supplies its unit.
func (r *report) set(defs []metricDef, name string, value, spread float64, n int) {
	i := slices.IndexFunc(defs, func(d metricDef) bool { return d.name == name })
	if i < 0 {
		panic("bench: metric " + name + " is not in the list it is reported under")
	}
	if _, seen := r.metrics[name]; !seen {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metricValue{Value: value, Unit: defs[i].unit}
	r.spread[name] = spread
	r.samples[name] = n
}

func (r *report) print(out *os.File, w *workload, cfg runConfig) {
	loop := "closed loop"
	if w.rate > 0 && cfg.trace != 0 {
		loop = fmt.Sprintf("closed loop, plus an open-loop sweep around %g calls/s", w.rate)
	}
	fmt.Fprintf(out, "workload %s seed %d trace %d (%s, %d connections, %d tenants)\n", w.name, cfg.seed, cfg.trace, loop, conns, w.tenants)
	for _, name := range r.order {
		m := r.metrics[name]
		at := ""
		if cfg.trace == 0 && atReferenceSpeed[name] {
			at = "  at reference speed"
		}
		fmt.Fprintf(out, "  %-34s %14.6g %-6s ± %-10.4g n=%d%s\n", name, round6(m.Value), m.Unit, round6(r.spread[name]), r.samples[name], at)
	}
	fmt.Fprintf(out, "  attempted %d  failed %d  error_share %.6f\n", r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	fmt.Fprintf(out, "  digest %s\n", r.digest)
	for _, n := range r.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	if cfg.verbose {
		for _, d := range r.detail {
			fmt.Fprintf(out, "  %s\n", d)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
}

// daemonStack is the real predictd over loopback HTTP, two connections.
type daemonStack struct {
	env     *runEnv
	tag     string
	d       *daemon
	execs   [conns]*httpExec
	deadCPU float64 // CPU of daemons this stack has already killed
	peakRSS float64
	gen     int
}

// startDaemonStack writes the fleet file and spawns the daemon on it.
func (e *runEnv) startDaemonStack(tag string) (*daemonStack, error) {
	specPath := filepath.Join(e.dir, "fleet.json")
	if err := os.WriteFile(specPath, e.specs, 0o644); err != nil {
		return nil, err
	}
	d, err := startDaemon(e.ctx, e.bin, e.dir, tag, "-specs", specPath)
	if err != nil {
		return nil, err
	}
	s := &daemonStack{env: e, tag: tag, d: d}
	for c := range s.execs {
		s.execs[c] = newHTTPExec(newConnClient(), "http://"+d.addr)
	}
	return s, nil
}

func (s *daemonStack) executor(c int) executor { return s.execs[c] }

func (s *daemonStack) cpuSeconds() float64 {
	cpu, err := s.d.cpuSeconds()
	if err != nil {
		return s.deadCPU // the child is gone; the run is about to fail on its next call
	}
	return s.deadCPU + cpu
}

func (s *daemonStack) notePeak() {
	if rss, err := s.d.peakRSSMB(); err == nil && rss > s.peakRSS {
		s.peakRSS = rss
	}
}

func (s *daemonStack) restart() (restartStats, error) {
	var rs restartStats
	// The snapshot is a read: take it a few times and keep the median time
	// (the images are identical; the last one is restored).
	var img []byte
	var times []float64
	for i := 0; i < snapshotReps; i++ {
		t0 := time.Now()
		var status int
		var err error
		if img, status, err = s.execs[0].snapshot(); err != nil {
			return rs, fmt.Errorf("POST /snapshot: %w", err)
		}
		if status != http.StatusOK {
			return rs, wrongAnswer{fmt.Errorf("POST /snapshot: status %d", status)}
		}
		times = append(times, ms(time.Since(t0)))
	}
	rs.snapshotMS = median(times)
	rs.snapshotMB = float64(len(img)) / (1 << 20)
	snapPath := filepath.Join(s.env.dir, fmt.Sprintf("%s-%d.snap", s.tag, s.gen))
	if err := os.WriteFile(snapPath, img, 0o644); err != nil {
		return rs, err
	}
	s.notePeak()
	if cpu, err := s.d.cpuSeconds(); err == nil {
		s.deadCPU += cpu
	}
	s.d.stop()
	s.gen++
	t1 := time.Now()
	d, err := startDaemon(s.env.ctx, s.env.bin, s.env.dir, fmt.Sprintf("%s-restored-%d", s.tag, s.gen), "-restore", snapPath)
	if err != nil {
		return rs, err
	}
	s.d = d
	for _, x := range s.execs {
		x.base = "http://" + d.addr
	}
	status, err := s.execs[0].call(http.MethodGet, "/accuracy?platform="+tenantName(0), nil, false)
	if err != nil {
		return rs, fmt.Errorf("first call after restore: %w", err)
	}
	if status != http.StatusOK {
		return rs, wrongAnswer{fmt.Errorf("first call after restore: status %d", status)}
	}
	rs.restoreS = time.Since(t1).Seconds()
	return rs, nil
}

func (s *daemonStack) stop() {
	if s.d.alive() {
		s.notePeak()
	}
	s.d.stop()
	for _, x := range s.execs {
		x.client.CloseIdleConnections()
	}
}

// stopAfter stops the stack at the end of a piece of work that ended in err
// and returns err - as a wrongAnswer when the work failed because the daemon
// had gone on its own.
func (s *daemonStack) stopAfter(err error) error {
	if err != nil && s.d.goneOnItsOwn() {
		err = wrongAnswer{fmt.Errorf("%w; predictd had ended on its own (%v), its log is %s.log", err, s.d.waitErr, s.d.tag)}
	}
	s.stop()
	return err
}

// subRunResult is one set-up, two measured phases around a
// snapshot/kill/restore, and the tear-down.
type subRunResult struct {
	speed      float64 // machine speed over the whole sub-run, for the text output
	setupSpeed float64 // machine speed around the set-up: setup_s is scaled by it
	setupS     float64
	prime      *phaseStats
	phases     []*phaseStats
	restart    restartStats
	peakRSS    float64
	digest     string
}

// snapshotReps is how many times POST /snapshot is timed per restart.
const snapshotReps = 5

// probeTenants is how many tenants are asked just before the snapshot and
// again after the restore: their prediction IDs must continue exactly.
const probeTenants = 8

// runSubRun sets a daemon up, measures two phases around a restart and
// tears it down. phaseSeconds or epochs sizes each phase.
func (e *runEnv) runSubRun(tag string, phaseSeconds float64, epochs int) (_ *subRunResult, err error) {
	// The reference kernel brackets the set-up, and the phases sample it at
	// their own barriers.
	first := len(e.speed.samples)
	before := e.speed.sample()
	stk, err := e.startDaemonStack(tag)
	if err != nil {
		return nil, err
	}
	defer func() { err = stk.stopAfter(err) }()
	run := newScriptRun(e.w, e.seed, stk, e.truth)
	run.speed = e.speed
	res := &subRunResult{}
	if res.prime, err = run.prime(); err != nil {
		return nil, err
	}
	res.setupS = time.Since(stk.d.spawn).Seconds()
	res.setupSpeed = speedOf(before, e.speed.sample())
	ph, err := run.phase(phaseSeconds, epochs)
	if err != nil {
		return nil, err
	}
	res.phases = append(res.phases, ph)
	if res.restart, err = run.restartChecked(); err != nil {
		return nil, err
	}
	if ph, err = run.phase(phaseSeconds, epochs); err != nil {
		return nil, err
	}
	res.speed = speedOf(e.speed.samples[first:]...)
	res.phases = append(res.phases, ph)
	text, status, err := stk.execs[0].metricsText()
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, wrongAnswer{fmt.Errorf("GET /metrics: status %d", status)}
	}
	if _, err = parseMetricsText(text); err != nil {
		ph.attempted++
		ph.failed++
		ph.fail("GET /metrics does not parse: " + err.Error())
	}
	stk.notePeak()
	res.peakRSS = stk.peakRSS
	res.digest = run.digest()
	return res, nil
}

// restartCycles is how many times in a row a sub-run snapshots, kills and
// restores its daemon: snapshot_ms and restore_s are single operations of
// tens of milliseconds, and one sample each per set-up was not steady.
const restartCycles = 3

// restartChecked restarts the stack restartCycles times, each between two
// probes: every probed tenant's first prediction ID after the restore must
// be exactly one above its last ID before the kill. It returns the medians.
func (r *scriptRun) restartChecked() (restartStats, error) {
	probe := func() (map[int]uint64, error) {
		ids := map[int]uint64{}
		for t := 0; t < probeTenants && t < r.w.tenants; t++ {
			cs := r.conns[t%conns]
			cs.st = &phaseStats{}
			r.do(cs, op{kind: opPredict, tenant: t, shape: 0}, false)
			if r.err != nil {
				return nil, r.err
			}
			if cs.st.failed > 0 {
				return nil, wrongAnswer{fmt.Errorf("restart probe: %s", cs.st.failures[0])}
			}
			ids[t] = cs.lastID[t]
		}
		return ids, nil
	}
	var snapMS, restoreS []float64
	var out restartStats
	before, err := probe()
	if err != nil {
		return out, err
	}
	for c := 0; c < restartCycles; c++ {
		rs, err := r.stk.restart()
		if err != nil {
			return out, err
		}
		after, err := probe()
		if err != nil {
			return out, err
		}
		for t, id := range before {
			if after[t] != id+1 {
				return out, fmt.Errorf("restore broke the ID sequence of %s: %d before the kill, %d after", tenantName(t), id, after[t])
			}
		}
		before = after
		snapMS, restoreS = append(snapMS, rs.snapshotMS), append(restoreS, rs.restoreS)
		out.snapshotMB = rs.snapshotMB
	}
	out.snapshotMS, out.restoreS = median(snapMS), median(restoreS)
	return out, nil
}

// runEndToEnd is --trace 0: subRuns set-ups of the real daemon, each
// measured for an equal share of --seconds.
func (e *runEnv) runEndToEnd() (*report, error) {
	phaseSeconds := e.cfg.seconds / float64(2*subRuns)
	if e.cfg.epochs > 0 {
		phaseSeconds = 0
	}
	var subs []*subRunResult
	for i := 0; i < subRuns; i++ {
		if err := e.useFleet(i); err != nil {
			return nil, err
		}
		var sub *subRunResult
		err := e.retrying(fmt.Sprintf("sub%d", i), func(tag string) (err error) {
			sub, err = e.runSubRun(tag, phaseSeconds, e.cfg.epochs)
			return err
		})
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
	return endToEndReport(e.w, subs), nil
}

// latencies collects one kind of call over a run.
type latencies struct {
	all      []float64 // ms, every call of the measured phases
	phaseP50 []float64 // each phase's own median
}

// slice is one equal-work stretch of a phase: sliceEpochs whole epochs.
type slice struct {
	seconds float64 // the epochs' own time, without the kernel samples between them
	cpu     float64 // serving-side CPU seconds
	preds   int
	speed   float64 // machine speed from the kernel samples before, between and after the epochs
}

// slices cuts a phase at its barrier marks.
func (ph *phaseStats) slices(sliceEpochs int) []slice {
	var out []slice
	speeds := ph.epochSpeeds()
	for i := 0; i+sliceEpochs < len(ph.marks); i += sliceEpochs {
		sl := slice{
			cpu:   ph.marks[i+sliceEpochs].cpu - ph.marks[i].cpu,
			preds: ph.marks[i+sliceEpochs].preds - ph.marks[i].preds,
		}
		for j := i + 1; j <= i+sliceEpochs; j++ {
			sl.seconds += ph.marks[j].at - ph.marks[j-1].resume
		}
		sl.speed = mean(speeds[i : i+sliceEpochs])
		if sl.seconds > 0 && sl.preds > 0 {
			out = append(out, sl)
		}
	}
	return out
}

// epochSpeeds is the machine speed during each epoch of the phase, from the
// kernel samples at the two barriers around it.
func (ph *phaseStats) epochSpeeds() []float64 {
	out := make([]float64, max(len(ph.marks)-1, 0))
	for e := range out {
		out[e] = 1
		if a, b := ph.marks[e].kernelMS, ph.marks[e+1].kernelMS; a > 0 && b > 0 {
			out[e] = speedOf(a, b)
		}
	}
	return out
}

// endToEndReport reduces sub-runs to the end-to-end metrics. Rates are
// computed per slice and the median over all slices of the run is reported,
// so a burst of interference spoils the slices it touches and not the
// figure; a latency is the median over every call of the run's measured
// phases (its printed spread is the IQR of the phases' own medians);
// per-set-up figures are the median over sub-runs; quality figures are
// pooled over the scored prefix (qualityEpochs). Timing figures are brought
// to reference speed before any of that: a slice by the kernel samples
// around it, a call by those around its epoch, a set-up by those around it.
func endToEndReport(w *workload, subs []*subRunResult) *report {
	rep := newReport()
	var setup, rss []float64
	var perS, cpuPer []float64
	var predictLat, observeLat, advanceLat latencies
	var relWidth []float64
	observed, captured := 0, 0
	digests := ""
	for i, s := range subs {
		rep.detail = append(rep.detail, fmt.Sprintf("sub-run %d: machine speed %.3f (%.3f around the set-up); as measured: setup %.3fs snapshot %.2fms (%.2fMB) restore %.4fs rss %.1fMB",
			i, s.speed, s.setupSpeed, s.setupS, s.restart.snapshotMS, s.restart.snapshotMB, s.restart.restoreS, s.peakRSS))
		// A slow machine (speed < 1) inflated every time and deflated every
		// rate by 1/speed; from here on figures are at reference speed.
		setup = append(setup, s.setupS*s.setupSpeed)
		rss = append(rss, s.peakRSS)
		digests += s.digest
		rep.attempted += s.prime.attempted
		rep.failed += s.prime.failed
		rep.failures = append(rep.failures, s.prime.failures...)
		for j, ph := range s.phases {
			sls := ph.slices(w.sliceEpochs)
			rep.attempted += ph.attempted
			rep.failed += ph.failed
			rep.failures = append(rep.failures, ph.failures...)
			kind := opPredict
			if ph.calls[opBatch] > 0 {
				kind = opBatch
			}
			for _, sl := range sls {
				perS = append(perS, float64(sl.preds)/sl.seconds/sl.speed)
				cpuPer = append(cpuPer, sl.cpu*1e6/float64(sl.preds)*sl.speed)
			}
			speeds := ph.epochSpeeds()
			for k, to := range map[opKind]*latencies{kind: &predictLat, opObserve: &observeLat, opAdvance: &advanceLat} {
				if len(ph.lat[k]) > 0 {
					scaled := make([]float64, len(ph.lat[k]))
					for c, l := range ph.lat[k] {
						scaled[c] = l * speeds[ph.latEpoch[k][c]]
					}
					to.all = append(to.all, scaled...)
					to.phaseP50 = append(to.phaseP50, median(scaled))
				}
			}
			observed += ph.observed
			captured += ph.captured
			relWidth = append(relWidth, ph.relWidth...)
			line := fmt.Sprintf("  phase %d: %.2fs wall, %d epochs, %d slices, %d calls, %d predictions, daemon cpu %.2fs, generator cpu %.2fs; as measured, p50 ms:",
				j, ph.wall, ph.epochs, len(sls), ph.attempted, ph.preds, ph.serverCPU, ph.clientCPU)
			for k, lat := range ph.lat {
				if len(lat) > 0 {
					line += fmt.Sprintf(" %s %.3g/max %.3g (n=%d)", opNames[k], quantile(lat, 0.5), quantile(lat, 1), len(lat))
				}
			}
			rep.detail = append(rep.detail, line)
		}
	}
	med := func(name string, xs []float64) {
		rep.set(endToEnd, name, median(xs), iqr(xs), len(xs))
	}
	med("setup_s", setup)
	med("pred_per_s", perS)
	med("cpu_us_per_pred", cpuPer)
	p50 := func(name string, l latencies) {
		rep.set(endToEnd, name, quantile(l.all, 0.5), iqr(l.phaseP50), len(l.all))
	}
	p50("predict_p50_ms", predictLat)
	p50("observe_p50_ms", observeLat)
	p50("advance_p50_ms", advanceLat)
	med("rss_peak_mb", rss)
	capture := 0.0
	if observed > 0 {
		capture = float64(captured) / float64(observed)
	}
	rep.set(endToEnd, "capture95", capture, 0, observed)
	rep.set(endToEnd, "relwidth95", median(relWidth), iqr(relWidth), len(relWidth))
	rep.digest = shortDigest(digests)
	return rep
}

func shortDigest(s string) string {
	if len(s) <= 64 {
		return s
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
