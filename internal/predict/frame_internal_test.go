package predict

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"prodpred/internal/dist"
	"prodpred/internal/obs"
	"prodpred/internal/stats"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
)

// perRunDistGrid is the reading half of the distribution transform as it
// was when every shape drew for itself: the run's own times — k times each
// phase, which is the tree's time (TestSORPointTimeIsKTimesPhase) — in draw
// order, sorted, read at the grid levels, monotonized. It is the reference the
// grid read off a size's shared, already sorted draws is held to.
func perRunDistGrid(phases []float64, k float64, raw stochastic.Value) []float64 {
	if phases == nil {
		return valueGrid(raw)
	}
	times := make([]float64, len(phases))
	for i, ph := range phases {
		times[i] = k * ph
	}
	sort.Float64s(times)
	grid := make([]float64, dist.NumLevels)
	for i, p := range dist.GridLevels {
		grid[i] = stats.QuantileSorted(times, p)
	}
	dist.Monotone(grid)
	return grid
}

// TestSharedDrawsGridMatchesPerRunGrid: sorting once and scaling afterwards
// is sorting each run's times — for iteration counts from 1 to
// MaxIterations, over draws with ties, with neighbours one ulp apart (which
// a scaling may round together), with draws that overflow under the
// scaling, with ±Inf and with NaN, the grid read off the sorted phase draws
// is the per-run grid bit for bit; and without draws both are the raw
// value's normal grid.
func TestSharedDrawsGridMatchesPerRunGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	iterations := []int{1, 2, 3, 7, 10, 80, 1<<20 + 1, MaxIterations - 1, MaxIterations}
	for i := 0; i < 12; i++ {
		iterations = append(iterations, 1+rng.Intn(MaxIterations))
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e303, math.MaxFloat64, 5e-324, 0}
	raw := stochastic.New(40, 9)
	for trial := 0; trial < 600; trial++ {
		phases := make([]float64, distSamples)
		scale := math.Pow(10, float64(rng.Intn(9)-4))
		for i := range phases {
			switch r := rng.Intn(20); {
			case i > 0 && r < 4:
				phases[i] = phases[rng.Intn(i)] // a tie
			case i > 0 && r < 7:
				phases[i] = math.Nextafter(phases[rng.Intn(i)], math.Inf(1))
			case r == 7 && trial%3 == 0:
				phases[i] = specials[rng.Intn(len(specials))]
			default:
				phases[i] = scale * (0.5 + rng.Float64())
			}
		}
		sorted := append([]float64(nil), phases...)
		sort.Float64s(sorted)
		for _, its := range iterations {
			k := structural.PhasePairs(its)
			got, want := distGrid(sorted, k, raw), perRunDistGrid(phases, k, raw)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Fatalf("trial %d, %d iterations, level %g: shared draws read %v, the run's own %v\nphases %v", trial, its, dist.GridLevels[i], got[i], want[i], phases)
				}
			}
		}
	}
	if got, want := distGrid(nil, 14, raw), perRunDistGrid(nil, 14, raw); !sameFloats(got, want) || !sameFloats(got, valueGrid(raw)) {
		t.Fatalf("without draws: %v, per run %v", got, want)
	}
}

// warmTickService is platform 2 an hour in, on a tick that has already
// answered one distribution-valued shape of grid size 1000 — and, a tick
// earlier, touched every grid size the tests below ask first, so their
// bandwidth monitors exist.
func warmTickService(t *testing.T, metrics bool, sizes int) *Service {
	t.Helper()
	spec, err := SimulatedSpec(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Warmup = 600
	var reg *obs.Registry
	if metrics {
		reg = obs.NewRegistry()
	}
	svc, err := NewServiceFromSpec(&spec, reg)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1000; n < 1000+sizes; n++ {
		if _, err := svc.Predict(Request{N: n, Iterations: 20}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Advance(30); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Predict(Request{N: 1000, Iterations: 20, Levels: []float64{0.95}}); err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestWarmTickMissAllocations: what a new shape costs once its tick, or its
// tick and grid size, have been asked before. Another iteration count of a
// size already asked is a hit at the size level, whose own share is the
// ledger slot and, with levels, its grid: measured 0 allocations scalar and
// 3 with levels, held under 4 and 8 (136 and 144 when every new shape ran
// the whole pipeline). The first shape of another grid size on a warm tick
// pays the size level — partition, bandwidth report, evaluator — but not
// the monitors: measured 8, held under 18.
func TestWarmTickMissAllocations(t *testing.T) {
	const runs = 40
	svc := warmTickService(t, false, runs+2)
	its := 100
	scalar := testing.AllocsPerRun(runs, func() {
		its++
		if _, err := svc.Predict(Request{N: 1000, Iterations: its}); err != nil {
			t.Fatal(err)
		}
	})
	if scalar > 4 {
		t.Errorf("a scalar shape on a warm tick and size allocates %v times, want <= 4", scalar)
	}
	levels := []float64{0.95}
	withLevels := testing.AllocsPerRun(runs, func() {
		its++
		if _, err := svc.Predict(Request{N: 1000, Iterations: its, Levels: levels}); err != nil {
			t.Fatal(err)
		}
	})
	if withLevels > 8 {
		t.Errorf("a levels shape on a warm tick and size allocates %v times, want <= 8", withLevels)
	}
	n := 1000
	newSize := testing.AllocsPerRun(runs, func() {
		n++
		if _, err := svc.Predict(Request{N: n, Iterations: 20}); err != nil {
			t.Fatal(err)
		}
	})
	if newSize > 18 {
		t.Errorf("the first miss of a grid size on a warm tick allocates %v times, want <= 18", newSize)
	}
	t.Logf("allocations per new shape on a warm tick: scalar %v, levels %v, first of a size %v", scalar, withLevels, newSize)
}

// TestLevelsMissReusesTheSizesDraws: once a size has its draws, a levels
// request of another iteration count evaluates the model not once — the
// dist_grid stage, timed once per pass of distSamples evaluations, does not
// fire again — and nothing else of the size level runs either.
func TestLevelsMissReusesTheSizesDraws(t *testing.T) {
	svc := warmTickService(t, true, 1)
	count := func(st stage) uint64 { return svc.metrics.stages[st].Snapshot().Count }
	before := [numStages]uint64{}
	for st := range before {
		before[st] = count(stage(st))
	}
	for its := 21; its < 40; its++ {
		p, err := svc.Predict(Request{N: 1000, Iterations: its, IterationRel: structural.Relation(its % 2), Levels: []float64{0.5, 0.95}})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Dist.Raw) != dist.NumLevels || len(p.Dist.Intervals) != 2 {
			t.Fatalf("%d iterations: no distribution served: %+v", its, p.Dist)
		}
	}
	for st := stageMonitorRead; st < stagePredict; st++ {
		if n := count(st) - before[st]; n != 0 {
			t.Errorf("stage %s ran %d times under new shapes of a computed size", Stages[st], n)
		}
	}
	if n := count(stagePredict) - before[stagePredict]; n != 19 {
		t.Errorf("%d predict calls timed, want 19", n)
	}
}

// TestCoreValueMatchesTree: the value a prediction serves is the expression
// tree's. Cached and uncached services share finishPrediction's arithmetic,
// so comparing them cannot see an error in it; this compares the served raw
// value — the size frame's phase value, scaled by the request's iteration
// count — with SORConfig.Predict over the frame's own load reports and
// bandwidth, by the bits of mean and spread, on the fleet
// TestDistGridMatchesTree runs, for every Max strategy and both iteration
// relations, from one shared frame per tick and size.
func TestCoreValueMatchesTree(t *testing.T) {
	specs := FleetSpecs(6, 29)
	specs[4].Net = nil
	values := 0
	for _, spec := range specs {
		spec := spec
		spec.Warmup = 0
		svc, err := NewServiceFromSpec(&spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, until := range []float64{0, 35, 600} {
			if err := svc.Advance(until - svc.Now()); err != nil {
				t.Fatal(err)
			}
			for _, shape := range []Request{{N: 400, Iterations: 10}, {N: 400, Iterations: 1 << 20, TimeBalanced: true}, {N: 37, Iterations: 3}} {
				for strategy := stochastic.LargestMean; strategy <= stochastic.Probabilistic; strategy++ {
					for _, rel := range []structural.Relation{structural.Related, structural.Unrelated} {
						req := shape
						req.MaxStrategy, req.IterationRel = strategy, rel
						p, sz := servedFrame(t, svc, req)
						params := structural.Params{structural.BWAvailParam: sz.bandwidth}
						for m, l := range sz.tick.loads {
							params[structural.LoadParam(m)] = l
						}
						want, err := svc.sorModel(req, sz.partition).Predict(params)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(p.Raw.Mean) != math.Float64bits(want.Mean) || math.Float64bits(p.Raw.Spread) != math.Float64bits(want.Spread) {
							t.Fatalf("%s at %g, %+v: served %v, tree %v", spec.Name, until, req, p.Raw, want)
						}
						values++
					}
				}
			}
		}
	}
	if values != len(specs)*3*3*6 {
		t.Fatalf("compared %d values", values)
	}
}
