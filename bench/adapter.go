package main

// adapter.go is the only file of the benchmark that imports
// prodpred/internal/...: when one of those packages changes its API, this
// file is what the benchmark has to pay. README.md lists the symbols bound
// here. Everything the rest of the harness needs from the repository comes
// through three things: a ground-truth function, an in-process twin of the
// daemon's serving stack, and the isolated per-layer timings.

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"time"

	"prodpred/internal/api"
	"prodpred/internal/calib"
	"prodpred/internal/fleetsched"
	"prodpred/internal/modal"
	"prodpred/internal/nws"
	"prodpred/internal/obs"
	"prodpred/internal/predict"
	"prodpred/internal/simenv"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
)

// parseFleet reads the benchmark's fleet file the way the daemon does.
func parseFleet(specs []byte) ([]predict.PlatformSpec, error) {
	parsed, err := predict.ParseSpecs(bytes.NewReader(specs))
	if err != nil {
		return nil, fmt.Errorf("fleet file rejected by predict.ParseSpecs: %w", err)
	}
	return parsed, nil
}

// newTruth builds one never-served twin environment per tenant from the
// same fleet file the daemon reads, and returns the function that charges a
// job against it exactly as fleetsched does: per strip, the element updates
// integrated over the machine's true availability from the prediction's
// time, plus the ghost-row exchanges at the dedicated link rate; the job
// takes as long as its slowest strip.
func newTruth(specs []byte) (truthFn, error) {
	parsed, err := parseFleet(specs)
	if err != nil {
		return nil, err
	}
	envs := make([]*simenv.Env, len(parsed))
	for i := range parsed {
		cfg, err := parsed[i].Config()
		if err != nil {
			return nil, err
		}
		if envs[i], err = simenv.New(cfg.Platform, cfg.CPU, cfg.Net); err != nil {
			return nil, err
		}
	}
	return func(tenant int, sh shape, rows []int, start float64) (float64, error) {
		if tenant < 0 || tenant >= len(envs) {
			return 0, fmt.Errorf("no tenant %d", tenant)
		}
		env := envs[tenant]
		plat := env.Platform()
		p := len(rows)
		if p == 0 || p > plat.Size() {
			return 0, fmt.Errorf("partition spans %d machines, tenant has %d", p, plat.Size())
		}
		ghost := float64(sh.n-2) * 8
		longest := 0.0
		for m := 0; m < p; m++ {
			elems := float64(rows[m]*(sh.n-2)) * float64(sh.iterations)
			d, err := env.WorkDuration(m, elems, start)
			if err != nil {
				return 0, err
			}
			neighbors := 0
			if m > 0 {
				neighbors++
			}
			if m < p-1 {
				neighbors++
			}
			if neighbors > 0 {
				other := m - 1
				if other < 0 {
					other = m + 1
				}
				link, err := plat.Link(m, other)
				if err != nil {
					return 0, err
				}
				d += float64(4*neighbors*sh.iterations) * (ghost/link.DedBW + link.Latency)
			}
			if d > longest {
				longest = d
			}
		}
		return longest, nil
	}, nil
}

// minCPUAvailability reads every machine of every tenant in the fleet file
// once per virtual second up to horizon, as a CPU sensor would, and returns
// the lowest availability seen: the fleet generator's promise that no sensor
// ever reads zero (spec.go) is checked through it.
func minCPUAvailability(specs []byte, horizon float64) (float64, error) {
	parsed, err := parseFleet(specs)
	if err != nil {
		return 0, err
	}
	lowest := 1.0
	for i := range parsed {
		cfg, err := parsed[i].Config()
		if err != nil {
			return 0, err
		}
		env, err := simenv.New(cfg.Platform, cfg.CPU, cfg.Net)
		if err != nil {
			return 0, err
		}
		for m := 0; m < env.Platform().Size(); m++ {
			for t := 0.0; t < horizon; t++ {
				lowest = min(lowest, env.RawCPUAvail(m, t))
			}
		}
	}
	return lowest, nil
}

// twin is the daemon's serving stack in this process: the registry predictd
// would host, the metrics registry it would share with the handler, and the
// handler itself.
type twin struct {
	reg     *predict.Registry
	metrics *obs.Registry
	h       http.Handler
	sched   *fleetsched.Scheduler // the predict-depth stand-in for the handler's scheduler
	names   []string
}

func newTwinOver(reg *predict.Registry, metrics *obs.Registry) *twin {
	return &twin{
		reg: reg, metrics: metrics,
		h:     api.NewHandler(reg, api.Options{Metrics: metrics}),
		sched: fleetsched.New(reg, fleetsched.Config{}),
		names: reg.Names(),
	}
}

// newTwin registers the fleet cold, as `predictd -specs` does.
func newTwin(specs []byte) (*twin, error) {
	parsed, err := parseFleet(specs)
	if err != nil {
		return nil, err
	}
	metrics := obs.NewRegistry()
	reg := predict.NewRegistryWith(predict.RegistryOptions{Metrics: metrics})
	for _, s := range parsed {
		if err := reg.RegisterSpec(s); err != nil {
			return nil, err
		}
	}
	return newTwinOver(reg, metrics), nil
}

// clone copies the twin through the snapshot codec — the repository's own
// bit-identical-continuation guarantee is what makes "identically seeded
// twin registries" cheap: prime once, restore a copy per depth. It returns
// the image size and the encode and decode times.
func (t *twin) clone() (*twin, restartStats, error) {
	var rs restartStats
	var buf bytes.Buffer
	t0 := time.Now()
	if err := t.reg.WriteSnapshot(&buf); err != nil {
		return nil, rs, err
	}
	rs.snapshotMS = ms(time.Since(t0))
	rs.snapshotMB = float64(buf.Len()) / (1 << 20)
	t1 := time.Now()
	metrics := obs.NewRegistry()
	reg, err := predict.ReadSnapshot(&buf, predict.RegistryOptions{Metrics: metrics})
	if err != nil {
		return nil, rs, err
	}
	rs.restoreS = time.Since(t1).Seconds()
	return newTwinOver(reg, metrics), rs, nil
}

func (t *twin) handler() http.Handler { return t.h }

func (t *twin) metricsText() (metricsText, error) {
	var buf bytes.Buffer
	if err := t.metrics.WriteText(&buf); err != nil {
		return nil, err
	}
	return parseMetricsText(buf.String())
}

// directExec is the predict depth: the calls the api handlers make on the
// registry, without the handlers. It follows *cur, so a restart that swaps
// the twin underneath keeps the executor valid.
type directExec struct{ cur **twin }

func directOver(cur **twin) executor { return directExec{cur} }

func toPrediction(name string, p *predict.Prediction) prediction {
	out := prediction{
		Platform: name, Time: p.Time, ID: p.ID,
		Mean: p.Value.Mean, Spread: p.Value.Spread, Lo: p.Value.Lo(), Hi: p.Value.Hi(),
		RawSpread: p.Raw.Spread,
	}
	if p.Partition != nil {
		out.PartitionRows = p.Partition.Rows
	}
	if len(p.Dist.Calibrated) > 0 {
		d := &distPayload{Levels: p.Dist.Levels, Raw: p.Dist.Raw, Calibrated: p.Dist.Calibrated}
		for _, iv := range p.Dist.Intervals {
			d.Intervals = append(d.Intervals, interval{Level: iv.Level, Lo: iv.Lo, Hi: iv.Hi})
		}
		out.Dist = d
	}
	return out
}

func request(tenant string, sh shape, levels bool) predict.Request {
	req := predict.Request{Platform: tenant, N: sh.n, Iterations: sh.iterations}
	if levels {
		req.Levels = askLevels
	}
	return req
}

func (x directExec) predict(tenant string, sh shape, levels bool) (prediction, int, error) {
	svc, err := (*x.cur).reg.Lookup(tenant)
	if err != nil {
		return prediction{}, http.StatusNotFound, nil
	}
	p, err := svc.Predict(request(tenant, sh, levels))
	if err != nil {
		return prediction{}, http.StatusBadRequest, nil
	}
	return toPrediction(svc.Name(), &p), http.StatusOK, nil
}

func (x directExec) batch(items []batchItem) ([]prediction, int, error) {
	reqs := make([]predict.Request, len(items))
	for i, it := range items {
		reqs[i] = request(tenantName(it.tenant), shapes[it.shape], it.levels)
	}
	preds, errs := (*x.cur).reg.PredictBatch(reqs)
	out := make([]prediction, len(items))
	for i := range preds {
		if errs[i] != nil {
			out[i].Error = errs[i].Error()
			continue
		}
		out[i] = toPrediction(reqs[i].Platform, &preds[i])
	}
	return out, http.StatusOK, nil
}

func (x directExec) observe(tenant string, id uint64, actual float64) (int, error) {
	if _, err := (*x.cur).reg.Observe(tenant, id, actual); err != nil {
		return http.StatusBadRequest, nil
	}
	return http.StatusOK, nil
}

func (x directExec) accuracy(tenant string) (int, error) {
	svc, err := (*x.cur).reg.Lookup(tenant)
	if err != nil {
		return http.StatusNotFound, nil
	}
	_, _, _ = svc.Accuracy(), svc.Now(), svc.Outstanding()
	return http.StatusOK, nil
}

func (x directExec) advance(tenant string) (int, error) {
	services := (*x.cur).reg.Services()
	if tenant != "" {
		svc, err := (*x.cur).reg.Lookup(tenant)
		if err != nil {
			return http.StatusNotFound, nil
		}
		services = []*predict.Service{svc}
	}
	for _, svc := range services {
		if err := svc.Advance(advanceSeconds); err != nil {
			return http.StatusBadRequest, nil
		}
	}
	return http.StatusOK, nil
}

func (x directExec) schedule(jobs []jobSpec) (scheduleResponse, int, error) {
	js := make([]fleetsched.JobSpec, len(jobs))
	for i, j := range jobs {
		js[i] = fleetsched.JobSpec{N: j.N, Iterations: j.Iterations}
	}
	pls, err := (*x.cur).sched.Submit(js)
	if err != nil {
		return scheduleResponse{}, http.StatusBadRequest, nil
	}
	r := scheduleResponse{Unplaced: len(jobs) - len(pls)}
	for _, pl := range pls {
		r.Placements = append(r.Placements, placement{JobID: pl.JobID, Tenant: pl.Tenant, PredictionID: pl.PredictionID})
	}
	return r, http.StatusOK, nil
}

// layerCosts times each layer below predict in isolation, by calling its
// public functions on inputs taken from the twin (a clone nothing else
// uses: several of these mutate it). Costs are per call in the unit the
// metric name carries; per is the time spent on each.
func (t *twin) layerCosts(specs []byte, warmup float64, per time.Duration, outcomes []outcome) (map[string]float64, error) {
	out := map[string]float64{}
	parsed, err := parseFleet(specs)
	if err != nil {
		return nil, err
	}
	// One tenant per archetype; every loop rotates over them so a cost is
	// the fleet's mix, not one platform's.
	var svcs []*predict.Service
	for i := 0; i < 3 && i < len(t.names); i++ {
		svc, err := t.reg.Lookup(t.names[i])
		if err != nil {
			return nil, err
		}
		svcs = append(svcs, svc)
	}
	i := 0
	next := func() *predict.Service { i++; return svcs[i%len(svcs)] }
	sh := func() shape { return shapes[hotShapes[i/len(svcs)%len(hotShapes)]] }
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Observes are fed the outcomes the replay recorded, in its order, so
	// the calibrator (drift CUSUM, periodic mode-count refit) sees residuals
	// like the ones it saw there; a replay without observes leaves a
	// deterministic +-10% stand-in.
	if len(outcomes) == 0 {
		noise := newRNG(fnv64("layer-costs"))
		for k := 0; k < 256; k++ {
			outcomes = append(outcomes, outcome{tenant: k % 3, mean: 100, spread: 25, rawSpread: 20,
				actual: 100 * (1 + 0.2*(noise.float()+noise.float()+noise.float()-1.5))})
		}
	}
	nextOutcome := 0
	jitter := func() float64 {
		o := outcomes[nextOutcome%len(outcomes)]
		nextOutcome++
		return o.actual / o.mean
	}

	out["predict.lookup_ns"] = 1e3 * perCallUS(per, func() {
		_, err := t.reg.Lookup(t.names[i%len(t.names)])
		i++
		note(err)
	})
	hit := func() {
		svc := next()
		_, err := svc.Predict(request(svc.Name(), sh(), false))
		note(err)
	}
	// A never-seen iteration count is a never-seen cache key: a miss
	// without moving the clock.
	fresh := 1 << 20
	miss := func() {
		svc := next()
		fresh++
		_, err := svc.Predict(predict.Request{Platform: svc.Name(), N: sh().n, Iterations: fresh})
		note(err)
	}
	// Every fresh key stays in the tick cache until the clock moves, and a
	// growing heap makes each later call pay more garbage collection than
	// the replay's calls did: flush tenants' caches between measurements.
	flush := func() {
		for _, svc := range svcs {
			note(svc.Advance(advanceSeconds))
		}
		runtime.GC()
	}
	out["predict.hit_us"] = perCallUS(per, hit)
	flush()
	out["predict.miss_us"] = perCallUS(per, miss)
	flush()
	out["predict.grid_us"] = diffUS(2*per, miss, func() {
		svc := next()
		fresh++
		_, err := svc.Predict(predict.Request{Platform: svc.Name(), N: sh().n, Iterations: fresh, Levels: askLevels})
		note(err)
	})
	flush()
	out["predict.overlay_q_us"] = diffUS(2*per, hit, func() {
		svc := next()
		_, err := svc.Predict(request(svc.Name(), sh(), true))
		note(err)
	})
	out["predict.observe_us"] = diffUS(2*per, hit, func() {
		svc := next()
		p, err := svc.Predict(request(svc.Name(), sh(), false))
		note(err)
		_, err = svc.Observe(p.ID, p.Value.Mean*jitter())
		note(err)
	})
	out["predict.advance_us"] = perCallUS(3*per, func() { note(next().Advance(advanceSeconds)) })
	var inst []float64
	for k := 0; k < 3 && k < len(parsed); k++ {
		t0 := time.Now()
		_, err := predict.NewServiceFromSpec(&parsed[k], nil)
		note(err)
		inst = append(inst, ms(time.Since(t0)))
	}
	out["predict.instantiate_ms"] = mean(inst)
	var img bytes.Buffer
	out["predict.snapshot_write_ms"] = perCallUS(per, func() {
		img.Reset()
		note(t.reg.WriteSnapshot(&img))
	}) / 1e3
	out["predict.snapshot_mb"] = float64(img.Len()) / (1 << 20)
	out["predict.snapshot_read_ms"] = perCallUS(per, func() {
		_, err := predict.ReadSnapshot(bytes.NewReader(img.Bytes()), predict.RegistryOptions{})
		note(err)
	}) / 1e3

	// nws / modal / simenv: a CPU monitor and a bandwidth monitor per
	// archetype, warmed as long as the fleet's own. nws.sample_us weighs the
	// two kinds as the fleet holds them (one CPU monitor per machine, one
	// bandwidth monitor per distinct grid size).
	var cpuUS, bwUS, machines []float64
	var mon *nws.Monitor
	var env *simenv.Env
	now := warmup
	for k := 0; k < 3 && k < len(parsed); k++ {
		cfg, err := parsed[k].Config()
		if err != nil {
			return nil, err
		}
		if env, err = simenv.New(cfg.Platform, cfg.CPU, cfg.Net); err != nil {
			return nil, err
		}
		if mon, err = nws.NewCPUMonitor(env, 0, nws.DefaultPeriod, 512); err != nil {
			return nil, err
		}
		bw, err := nws.NewBandwidthMonitor(env, 0, 1, float64(shapes[hotShapes[0]].n-2)*8, nws.DefaultPeriod, 512)
		if err != nil {
			return nil, err
		}
		for _, m := range []*nws.Monitor{mon, bw} {
			m := m
			at := warmup
			note(m.RunUntil(at))
			cost := perCallUS(per/3, func() {
				at += nws.DefaultPeriod
				note(m.RunUntil(at))
			})
			if m == mon {
				cpuUS = append(cpuUS, cost)
			} else {
				bwUS = append(bwUS, cost)
			}
			now = max(now, at)
		}
		machines = append(machines, float64(len(parsed[k].Machines)))
	}
	nm := mean(machines)
	out["nws.sample_us"] = (nm*mean(cpuUS) + bwMonitors*mean(bwUS)) / (nm + bwMonitors)
	hist := mon.History()
	last := hist[len(hist)-1]
	out["nws.tournament_us"] = perCallUS(per, func() { mon.Tournament().Update(hist, last) })
	out["nws.mix_us"] = perCallUS(per, func() { mon.Mix().Update(hist, last) })
	// The mixture fits are timed on the latest 64 samples that are not all
	// one value: how far the timed loops above have run the monitor depends
	// on the machine, a flash-crowd machine between two crowds reads the same
	// availability for minutes, and modal.FitEM refuses a constant sample.
	window := hist
	for end := len(hist); end >= 64; end-- {
		window = hist[end-64 : end]
		if slices.Max(window) > slices.Min(window) {
			break
		}
	}
	out["modal.fitem_us"] = perCallUS(per, func() {
		_, err := modal.FitEM(window, 2)
		note(err)
	})
	out["modal.fitbic_us"] = perCallUS(per, func() {
		_, err := modal.FitBIC(window, 4)
		note(err)
	})
	sensor, err := nws.CPUSensor(env, 0)
	if err != nil {
		return nil, err
	}
	out["simenv.sample_us"] = perCallUS(per, func() {
		now += nws.DefaultPeriod
		_, err := sensor(now)
		note(err)
	})

	// structural: the model one served prediction was evaluated on.
	svc := svcs[0]
	p, err := svc.Predict(request(svc.Name(), shapes[hotShapes[0]], false))
	if err != nil {
		return nil, err
	}
	link, err := svc.Platform().Link(0, 1)
	if err != nil {
		return nil, err
	}
	model := &structural.SORConfig{
		N: shapes[hotShapes[0]].n, Iterations: shapes[hotShapes[0]].iterations,
		Partition: p.Partition, Machines: svc.Machines(),
		MachineIdx: sor.IdentityMapping(len(svc.Machines())), Link: link,
	}
	params := structural.Params{structural.BWAvailParam: p.Bandwidth}
	for m, l := range p.Loads {
		params[structural.LoadParam(m)] = l.Load
	}
	out["structural.eval_us"] = perCallUS(per, func() {
		_, err := model.Predict(params)
		note(err)
	})

	trackers := map[int]*calib.Tracker{}
	for _, o := range outcomes {
		if trackers[o.tenant] == nil {
			if trackers[o.tenant], err = calib.New(calib.Config{}); err != nil {
				return nil, err
			}
		}
	}
	var id uint64
	out["calib.observe_us"] = perCallUS(per, func() {
		o := outcomes[id%uint64(len(outcomes))]
		id++
		trackers[o.tenant].Observe(calib.Outcome{
			ID: id, Time: float64(id), Actual: o.actual, RawQuantiles: o.rawQ,
			Raw: stochastic.New(o.mean, o.rawSpread), Calibrated: stochastic.New(o.mean, o.spread),
		})
	})
	tracker, raw := trackers[outcomes[0].tenant], stochastic.New(outcomes[0].mean, outcomes[0].rawSpread)
	out["calib.calibrate_us"] = perCallUS(per, func() { _ = tracker.Calibrate(raw) })

	sch := fleetsched.New(t.reg, fleetsched.Config{})
	jobs := make([]fleetsched.JobSpec, fleetJobs)
	for k := range jobs {
		jobs[k] = fleetsched.JobSpec{N: 400, Iterations: 10 + 10*(k%3)}
	}
	out["fleetsched.submit_us_per_job"] = perCallUS(per, func() {
		_, err := sch.Submit(jobs)
		note(err)
	}) / fleetJobs
	out["fleetsched.sync_us"] = perCallUS(per, sch.Sync)

	mw := obs.NewHTTPMiddleware(obs.NewRegistry())
	wrapped := mw.Wrap("GET /noop", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	req, err := http.NewRequest(http.MethodGet, "/noop", nil)
	if err != nil {
		return nil, err
	}
	out["obs.mw_us"] = perCallUS(per, func() { wrapped.ServeHTTP(discardWriter{}, req) })
	return out, firstErr
}
