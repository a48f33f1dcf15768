package predict_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"prodpred/internal/obs"
	"prodpred/internal/predict"
	"prodpred/internal/sched"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
)

// shardService builds the stress platform with the tick cache on or off —
// the two serving paths the coherence tests compare.
func shardService(t *testing.T, seed int64, noCache bool) *predict.Service {
	t.Helper()
	spec := burstySpec(t, seed, 0, stressFaults(4)...)
	svc, err := predict.NewServiceFromSpec(&spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if noCache {
		predict.DropTickCache(svc)
	}
	if err := svc.Advance(100 - svc.Now()); err != nil {
		t.Fatal(err)
	}
	return svc
}

// stressShapes are distinct request shapes — distinct cache keys — so the
// stress tests exercise several cache entries per tick, not one.
func stressShapes() []predict.Request {
	return []predict.Request{
		{N: 120, Iterations: 6, MaxStrategy: stochastic.LargestMean},
		{N: 60, Iterations: 3, MaxStrategy: stochastic.LargestMean},
		{N: 240, Iterations: 6, MaxStrategy: stochastic.LargestMagnitude},
		{N: 120, Iterations: 6, MaxStrategy: stochastic.LargestMean, TimeBalanced: true},
	}
}

// TestShardedPredictTickCoherence is the sharded-state -race stress test:
// many goroutines Predict with mixed request shapes while another advances
// the clock. Two invariants must hold no matter how the scheduler
// interleaves them: (a) every prediction carries a virtual time the clock
// actually stood at, and all predictions sharing a (time, shape) pair are
// identical — a cache hit can never leak a core computed at an older tick;
// (b) once an Advance call has returned, no later Predict may be stamped
// with a pre-advance time.
func TestShardedPredictTickCoherence(t *testing.T) {
	svc := shardService(t, 47, false)
	shapes := stressShapes()
	startGen := svc.CacheGeneration()

	type obs struct {
		time  float64
		shape int
		value stochastic.Value
	}
	var (
		mu   sync.Mutex
		seen []obs
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				shape := (w + i) % len(shapes)
				p, err := svc.Predict(shapes[shape])
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				mu.Lock()
				seen = append(seen, obs{p.Time, shape, p.Value})
				mu.Unlock()
			}
		}(w)
	}
	// Let the workers land predictions at every tick before moving the
	// clock, so each advance genuinely interleaves with concurrent hits.
	waitForSamples := func(n int) {
		for {
			mu.Lock()
			c := len(seen)
			mu.Unlock()
			if c >= n {
				return
			}
			runtime.Gosched()
		}
	}
	ticks := map[float64]bool{svc.Now(): true}
	for i := 0; i < 6; i++ {
		waitForSamples((i + 1) * 16)
		if err := svc.Advance(31); err != nil {
			t.Fatal(err)
		}
		ticks[svc.Now()] = true
		// A Predict issued strictly after Advance returned must see the
		// new clock, never a cached pre-advance core.
		p, err := svc.Predict(shapes[0])
		if err != nil {
			t.Fatal(err)
		}
		if p.Time != svc.Now() {
			t.Fatalf("stale prediction escaped: issued at %v after advancing to %v", p.Time, svc.Now())
		}
	}
	close(stop)
	wg.Wait()

	byKey := map[string]stochastic.Value{}
	for _, o := range seen {
		if !ticks[o.time] {
			t.Fatalf("prediction stamped with time %v, which the clock never stood at", o.time)
		}
		key := fmt.Sprintf("%v/%d", o.time, o.shape)
		if first, ok := byKey[key]; !ok {
			byKey[key] = o.value
		} else if first != o.value {
			t.Fatalf("tick %s: predictions diverged: %v vs %v", key, first, o.value)
		}
	}
	if len(seen) == 0 {
		t.Fatal("stress run produced no concurrent predictions")
	}
	if svc.CacheGeneration() == startGen {
		t.Error("advances did not move the cache generation")
	}
}

// TestCachedMatchesUncached locks down the cache's core guarantee: the
// tick-scoped cache is a pure memoization, so a cached service and a
// DropTickCache service with the same seed, driven through the same
// predict/observe/advance sequence, must emit byte-identical predictions
// (IDs, calibration state, monitor diagnostics — everything).
func TestCachedMatchesUncached(t *testing.T) {
	run := func(noCache bool) []string {
		svc := shardService(t, 51, noCache)
		shapes := stressShapes()
		var got []string
		for r := 0; r < 5; r++ {
			for rep := 0; rep < 3; rep++ { // repeats hit the cache on the cached service
				for _, req := range shapes {
					p, err := svc.Predict(req)
					if err != nil {
						t.Fatal(err)
					}
					// %#v renders the partition as a pointer address;
					// compare its contents instead.
					part := "<nil>"
					if p.Partition != nil {
						part = fmt.Sprintf("%#v", *p.Partition)
					}
					p.Partition = nil
					got = append(got, fmt.Sprintf("%#v|%s", p, part))
					if rep == 0 {
						if _, err := svc.Observe(p.ID, p.Raw.Mean*1.03); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if err := svc.Advance(29); err != nil {
				t.Fatal(err)
			}
		}
		got = append(got, fmt.Sprintf("%#v", svc.Accuracy()))
		return got
	}
	cached, uncached := run(false), run(true)
	if len(cached) != len(uncached) {
		t.Fatalf("run lengths diverged: %d vs %d", len(cached), len(uncached))
	}
	for i := range cached {
		if cached[i] != uncached[i] {
			t.Fatalf("step %d diverged:\ncached:   %s\nuncached: %s", i, cached[i], uncached[i])
		}
	}
}

// TestPinnedPartitionIsItsOwnSize: a request that pins a partition is
// answered over that partition even when the tick already holds its grid
// size's frame over another, and leaves that frame alone: asked in turn
// with the unpinned request of the same size, every answer is what a
// service without a cache gives.
func TestPinnedPartitionIsItsOwnSize(t *testing.T) {
	run := func(noCache bool) []string {
		svc := shardService(t, 53, noCache)
		req := predict.Request{N: 240, Iterations: 6, Levels: []float64{0.9}}
		other := req
		other.Strategy = sched.Conservative
		part, err := svc.Partition(other)
		if err != nil {
			t.Fatal(err)
		}
		if chosen, err := svc.Partition(req); err != nil || fmt.Sprint(chosen.Rows) == fmt.Sprint(part.Rows) {
			t.Fatalf("the pinned partition %v is the one the scheduler chooses (%v): nothing to tell apart", part.Rows, err)
		}
		pinned := req
		pinned.Partition = part
		var got []string
		for _, r := range []predict.Request{req, pinned, req, pinned} {
			got = append(got, renderPrediction(svc.Predict(r)))
		}
		return got
	}
	cached, uncached := run(false), run(true)
	for i := range cached {
		if cached[i] != uncached[i] {
			t.Fatalf("answer %d diverged:\ncached:   %s\nuncached: %s", i, cached[i], uncached[i])
		}
	}
}

// frameArchetypes are the platforms the randomised cached-vs-uncached
// sequences run on, spec-built so a sequence can pass through a snapshot:
// the bursty paper platform under sensor faults, a steady tenant on a
// dedicated (unmonitored) network, and a workload-scenario tenant.
func frameArchetypes(t *testing.T, seed int64) []predict.PlatformSpec {
	t.Helper()
	faulty, err := predict.SimulatedSpec(2, seed)
	if err != nil {
		t.Fatal(err)
	}
	faulty.Warmup, faulty.History, faulty.FaultSeed = 120, 256, seed+7
	faulty.Faults = []predict.FaultSpec{
		{Machine: 0, Drop: 0.2, Transient: 0.05, Outages: []predict.OutageSpec{{Start: 150, End: 260}}},
		{Machine: 2, Drop: 0.1},
	}
	fleet := predict.FleetSpecs(3, seed)
	dedicated, scenario := fleet[0], fleet[2]
	dedicated.Name, dedicated.Net = "dedicated-net", nil
	return []predict.PlatformSpec{faulty, dedicated, scenario}
}

// randomShape draws a request from a pool built to collide: two grid sizes,
// so most shapes of a tick share a size frame and differ in what the shape
// level or the size key holds.
func randomShape(rng *rand.Rand, name string) predict.Request {
	req := predict.Request{
		Platform:     name,
		N:            []int{120, 200}[rng.Intn(2)],
		Iterations:   []int{3, 6, 11, 40}[rng.Intn(4)],
		IterationRel: structural.Relation(rng.Intn(2)),
		MaxStrategy:  stochastic.MaxStrategy(rng.Intn(3)),
		Strategy:     []sched.Strategy{sched.MeanBalanced, sched.MeanBalanced, sched.Conservative, sched.Optimistic}[rng.Intn(4)],
		TimeBalanced: rng.Intn(5) == 0,
	}
	switch rng.Intn(3) {
	case 1:
		req.Levels = []float64{0.5, 0.95}[:1+rng.Intn(2)]
	case 2:
		req.Distribution = true
	}
	return req
}

// renderPrediction is TestCachedMatchesUncached's comparison form: every
// field by %#v, the partition by its contents.
func renderPrediction(p predict.Prediction, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	part := "<nil>"
	if p.Partition != nil {
		part = fmt.Sprintf("%#v", *p.Partition)
	}
	p.Partition = nil
	return fmt.Sprintf("%#v|%s", p, part)
}

// runFrameSequence drives one platform through a seeded sequence of
// predictions (scalar, with levels, distribution-valued), batches, observes,
// clock movements (a zero advance keeps the tick, a positive one drops it)
// and, at a random step, a snapshot and restore — and returns everything it
// was answered.
func runFrameSequence(t *testing.T, spec predict.PlatformSpec, seed int64, noCache bool) []string {
	t.Helper()
	reg := predict.NewRegistry()
	if err := reg.RegisterSpec(spec); err != nil {
		t.Fatal(err)
	}
	const steps = 48
	rng := rand.New(rand.NewSource(seed))
	restoreAt := rng.Intn(steps)
	var (
		got     []string
		pending []predict.Prediction
	)
	answered := func(p predict.Prediction, err error) {
		got = append(got, renderPrediction(p, err))
		if err == nil {
			pending = append(pending, p)
		}
	}
	for step := 0; step < steps; step++ {
		svc, err := reg.Lookup(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if noCache {
			predict.DropTickCache(svc)
		}
		if step == restoreAt {
			var img bytes.Buffer
			if err := reg.WriteSnapshot(&img); err != nil {
				t.Fatal(err)
			}
			if reg, err = predict.ReadSnapshot(&img, predict.RegistryOptions{}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		switch op := rng.Intn(10); {
		case op < 5:
			answered(svc.Predict(randomShape(rng, spec.Name)))
		case op == 5:
			reqs := make([]predict.Request, 2+rng.Intn(5))
			for i := range reqs {
				reqs[i] = randomShape(rng, spec.Name)
			}
			preds, errs := reg.PredictBatch(reqs)
			for i := range preds {
				answered(preds[i], errs[i])
			}
		case op == 6 || op == 7:
			if len(pending) == 0 {
				continue
			}
			k := rng.Intn(len(pending))
			p := pending[k]
			pending = append(pending[:k], pending[k+1:]...)
			drifted, err := svc.Observe(p.ID, p.Raw.Mean*(0.85+0.3*rng.Float64()))
			got = append(got, fmt.Sprintf("%v %#v %v", drifted, svc.Accuracy(), err))
		case op == 8:
			if err := svc.Advance(0); err != nil {
				t.Fatal(err)
			}
		default:
			if err := svc.Advance(3 + 40*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc, err := reg.Lookup(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	return append(got, fmt.Sprintf("%#v", svc.Accuracy()))
}

// TestFrameMatchesNoFrameRandomised is TestCachedMatchesUncached over
// seeded operation sequences instead of one fixed loop: on three platform
// archetypes and twenty seeds each, a service that shares a tick's frames
// and one that computes every request on a frame of its own answer every
// prediction, error and observe identically — shapes that share a grid size
// and differ in iteration count, relation, Max strategy or partitioning
// strategy included, across zero and positive advances and a restore.
func TestFrameMatchesNoFrameRandomised(t *testing.T) {
	const seeds = 20
	answers := 0
	for seed := int64(1); seed <= seeds; seed++ {
		for _, spec := range frameArchetypes(t, 300+seed) {
			cached := runFrameSequence(t, spec, seed, false)
			uncached := runFrameSequence(t, spec, seed, true)
			if len(cached) != len(uncached) {
				t.Fatalf("%s seed %d: run lengths diverged: %d vs %d", spec.Name, seed, len(cached), len(uncached))
			}
			for i := range cached {
				if cached[i] != uncached[i] {
					t.Fatalf("%s seed %d, answer %d diverged:\ncached:   %s\nuncached: %s", spec.Name, seed, i, cached[i], uncached[i])
				}
			}
			answers += len(cached)
		}
	}
	if answers < seeds*3*30 {
		t.Fatalf("only %d answers compared", answers)
	}
}

// stageCount reads how often a pipeline stage has been timed on a platform.
func stageCount(reg *obs.Registry, platform, stage string) uint64 {
	return reg.NewHistogramVec(predict.MetricStageDuration, "", nil, "platform", "stage").With(platform, stage).Snapshot().Count
}

func counterValue(reg *obs.Registry, name, platform string) int64 {
	return reg.NewCounterVec(name, "", "platform").With(platform).Value()
}

// TestFrameStorm: eight goroutines ask eight shapes of two grid sizes on a
// fresh tick, all at once, all distribution-valued, so first touches race on
// the tick's size table as well as on its reports. The monitors are read
// once; each size's partition is chosen, its model evaluated and its draws
// run once — two misses, six hits — and everyone is answered what a service
// without a cache answers. Then a tick whose size level fails (the 65th
// bandwidth probe size) fails every shape of that size with one text.
func TestFrameStorm(t *testing.T) {
	metrics := obs.NewRegistry()
	build := func(metrics *obs.Registry) *predict.Service {
		spec, err := predict.SimulatedSpec(1, 61)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := predict.NewServiceFromSpec(&spec, metrics)
		if err != nil {
			t.Fatal(err)
		}
		if metrics == nil {
			predict.DropTickCache(svc)
		}
		if err := svc.Advance(100 - svc.Now()); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc, plain := build(metrics), build(nil)
	name := svc.Name()
	// The bandwidth monitors of the storm's grid sizes exist before the
	// storm, so the counted tick is an ordinary one.
	for _, n := range []int{160, 161} {
		if _, err := svc.Predict(predict.Request{N: n, Iterations: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*predict.Service{svc, plain} {
		if err := s.Advance(130 - s.Now()); err != nil {
			t.Fatal(err)
		}
	}
	before := map[string]uint64{}
	for _, stage := range predict.Stages {
		before[stage] = stageCount(metrics, name, stage)
	}
	missesBefore := counterValue(metrics, predict.MetricCacheMisses, name)
	hitsBefore := counterValue(metrics, predict.MetricCacheHits, name)

	const workers = 8
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   [workers]predict.Prediction
	)
	shape := func(w int) predict.Request {
		return predict.Request{N: 160 + w%2, Iterations: 5 + w/4, IterationRel: structural.Relation(w / 2 % 2), Levels: []float64{0.9}}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			p, err := svc.Predict(shape(w))
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
			got[w] = p
		}(w)
	}
	close(start)
	wg.Wait()
	for stage, want := range map[string]uint64{"monitor_read": 1, "forecast": 1, "schedule": 2, "model_eval": 2, "dist_grid": 2, "predict": workers} {
		if n := stageCount(metrics, name, stage) - before[stage]; n != want {
			t.Errorf("stage %s ran %d times in the storm, want %d", stage, n, want)
		}
	}
	if n := counterValue(metrics, predict.MetricCacheMisses, name) - missesBefore; n != 2 {
		t.Errorf("%d misses for 2 sizes", n)
	}
	if n := counterValue(metrics, predict.MetricCacheHits, name) - hitsBefore; n != workers-2 {
		t.Errorf("%d hits for %d shapes of 2 sizes", n, workers)
	}
	for w := range got {
		want, err := plain.Predict(shape(w))
		if err != nil {
			t.Fatal(err)
		}
		got[w].ID, want.ID = 0, 0
		if g, w2 := renderPrediction(got[w], nil), renderPrediction(want, nil); g != w2 {
			t.Errorf("worker %d:\nstorm:    %s\nuncached: %s", w, g, w2)
		}
	}

	// Fill the platform's probe sizes, then ask shapes of one more size on a
	// fresh tick: the size level's refusal is every shape's answer.
	for n := 200; n < 200+predict.MaxProbeSizes-2; n++ { // 160 and 161 are the first
		if _, err := svc.Predict(predict.Request{N: n, Iterations: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Advance(10); err != nil {
		t.Fatal(err)
	}
	schedulesBefore := stageCount(metrics, name, "schedule")
	var texts [workers]string
	start = make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			req := shape(w)
			req.N = 99
			_, err := svc.Predict(req)
			if err == nil {
				t.Errorf("worker %d: a 65th probe size was served", w)
				return
			}
			texts[w] = err.Error()
		}(w)
	}
	close(start)
	wg.Wait()
	for w := range texts {
		if texts[w] != texts[0] || !strings.Contains(texts[w], "needs one more bandwidth probe size") {
			t.Errorf("worker %d refused with %q, worker 0 with %q", w, texts[w], texts[0])
		}
	}
	if n := stageCount(metrics, name, "schedule") - schedulesBefore; n != 1 {
		t.Errorf("the refused size was worked out %d times, want 1", n)
	}
}
