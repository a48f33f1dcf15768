package predict

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"prodpred/internal/dist"
	"prodpred/internal/nws"
	"prodpred/internal/obs"
	"prodpred/internal/sor"
	"prodpred/internal/stats"
	"prodpred/internal/stochastic"
	"prodpred/internal/structural"
)

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// randomQuantileGrid draws a nondecreasing quantile grid around the
// availability range, a third of its steps ties, some of it below the
// minAvailPoint floor.
func randomQuantileGrid(rng *rand.Rand) []float64 {
	grid := make([]float64, dist.NumLevels)
	v := 1.6*rng.Float64() - 0.4
	for i := range grid {
		if rng.Intn(3) > 0 {
			v += 0.2 * rng.Float64()
		}
		grid[i] = v
	}
	return grid
}

// TestDistDesignIsShared: services of one machine count read one design,
// equal to the one buildDistDesign tabulates for that count.
func TestDistDesignIsShared(t *testing.T) {
	a, b := simulatedService(t, 2, 1), simulatedService(t, 2, 7)
	if a.design != b.design {
		t.Error("two services of one machine count built two designs")
	}
	if !reflect.DeepEqual(a.design, buildDistDesign(len(a.machines))) {
		t.Error("the shared design is not the one its machine count tabulates")
	}
}

// TestDistDesignMatchesUniforms: the tabulated design is the uniform matrix
// read the long way — for every (draw, machine) the located read is
// dist.GridQuantile at that uniform, and for every draw the bandwidth
// fraction is Value.Quantile at its uniform, bit for bit, before and after
// the availability floor.
func TestDistDesignMatchesUniforms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, machines := range []int{3, 4, 8} {
		u := buildDistUniforms(machines + 1)
		d := buildDistDesign(machines)
		if len(d.bwZ) != distSamples || len(d.cells) != distSamples*machines {
			t.Fatalf("%d machines: %d z-scores, %d cells", machines, len(d.bwZ), len(d.cells))
		}
		dists := make([]nws.LoadDist, machines)
		loads := make([]float64, machines)
		for trial := 0; trial < 1000; trial++ {
			for m := range dists {
				dists[m].Quantiles = randomQuantileGrid(rng)
			}
			for i := range u {
				d.loads(i, dists, loads)
				for m, grid := range dists {
					want := dist.GridQuantile(grid.Quantiles, u[i][m])
					if got := d.cells[i*machines+m].Read(grid.Quantiles); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%d machines, draw %d, machine %d, grid %v: tabled read %v, GridQuantile %v", machines, i, m, grid.Quantiles, got, want)
					}
					if want = math.Max(want, minAvailPoint); math.Float64bits(loads[m]) != math.Float64bits(want) {
						t.Fatalf("%d machines, draw %d, machine %d: floored load %v, want %v", machines, i, m, loads[m], want)
					}
				}
			}
		}
		fracs := []stochastic.Value{
			stochastic.Point(1), stochastic.Point(0.37), stochastic.Point(0.001),
			stochastic.New(0.6, 0.3), stochastic.New(0.5, 4),
			stochastic.New(0.01, 0.25), // what bwReport re-floors a collapsed forecast to
		}
		for i := 0; i < 200; i++ {
			fracs = append(fracs, stochastic.New(1.2*rng.Float64(), rng.Float64()))
		}
		for _, frac := range fracs {
			for i := range u {
				want := math.Max(frac.Quantile(u[i][machines]), minAvailPoint)
				if got := d.bandwidth(i, frac); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%d machines, draw %d, fraction %v: tabled draw %v, Quantile %v", machines, i, frac, got, want)
				}
			}
		}
	}
}

// valueGrid is the degraded grid as it was read before the grid had one
// owner: the raw value's own quantile at every level. The served fallback,
// dist.NormalGrid, is held to it bit for bit.
func valueGrid(v stochastic.Value) []float64 {
	grid := make([]float64, dist.NumLevels)
	for i, p := range dist.GridLevels {
		grid[i] = v.Quantile(p)
	}
	return grid
}

// treeDistGrid is the distribution transform as it was before the point
// evaluator, the design tables and the shared phase draws: the expression
// tree evaluated at every draw, each draw inverted from the uniform matrix
// on the spot, the run's own times sorted. It is the reference the served
// grid is held to.
func treeDistGrid(s *Service, model *structural.SORConfig, dists []nws.LoadDist, bwFrac, raw stochastic.Value) []float64 {
	tree, err := model.Build()
	if err != nil {
		return valueGrid(raw)
	}
	u := buildDistUniforms(len(dists) + 1)
	params := structural.Params{structural.BWAvailParam: stochastic.Point(1)}
	times := make([]float64, len(u))
	bwDim := len(dists)
	for i, row := range u {
		if s.netMon {
			bw := bwFrac.Quantile(row[bwDim])
			params[structural.BWAvailParam] = stochastic.Point(math.Max(bw, minAvailPoint))
		}
		for m := range dists {
			q := dist.GridQuantile(dists[m].Quantiles, row[m])
			params[structural.LoadParam(m)] = stochastic.Point(math.Max(q, minAvailPoint))
		}
		v, err := tree.Eval(params)
		if err != nil {
			return valueGrid(raw)
		}
		times[i] = v.Mean
	}
	sort.Float64s(times)
	grid := make([]float64, dist.NumLevels)
	for i, p := range dist.GridLevels {
		grid[i] = stats.QuantileSorted(times, p)
	}
	dist.Monotone(grid)
	return grid
}

// TestDistGridMatchesTree: over a mixed fleet (three- and four-machine
// tenants, steady, bursty and scenario loads, monitored and dedicated
// networks), cold and warm, for every Max strategy and both iteration
// relations, the grid the service computes is the tree-evaluated grid bit
// for bit — and a model that refuses a draw degrades it to the normal one.
func TestDistGridMatchesTree(t *testing.T) {
	specs := FleetSpecs(9, 23)
	dedicated := specs[4]
	dedicated.Name, dedicated.Net = "dedicated-net", nil
	specs = append(specs, dedicated)
	shapes := []Request{
		{N: 400, Iterations: 10},
		{N: 1600, Iterations: 80, TimeBalanced: true},
		{N: 37, Iterations: 3},
	}
	grids := 0
	for _, spec := range specs {
		spec := spec
		spec.Warmup = 0
		svc, err := NewServiceFromSpec(&spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, until := range []float64{0, 35, 600, 1805} {
			if err := svc.Advance(until - svc.Now()); err != nil {
				t.Fatal(err)
			}
			for _, shape := range shapes {
				for _, strategy := range []stochastic.MaxStrategy{stochastic.LargestMean, stochastic.LargestMagnitude, stochastic.Probabilistic} {
					for _, rel := range []structural.Relation{structural.Related, structural.Unrelated} {
						req := shape
						req.MaxStrategy, req.IterationRel, req.Distribution = strategy, rel, true
						p, sz := servedFrame(t, svc, req)
						model, dists, bandwidth := svc.sorModel(req, sz.partition), sz.tick.dists, sz.bandwidth
						got := p.Dist.Raw
						want := treeDistGrid(svc, model, dists, bandwidth, p.Raw)
						if !sameFloats(got, want) {
							t.Fatalf("%s at %g, %+v:\ngrid %v\ntree %v", spec.Name, until, req, got, want)
						}
						if sameFloats(got, valueGrid(p.Raw)) {
							t.Fatalf("%s at %g, %+v: the grid degraded to the normal one", spec.Name, until, req)
						}
						grids++

						// The served path builds its evaluator once, for the
						// scalar value too, so a config it refuses never
						// reaches the grid; what degrades the grid is a
						// refused draw — here by an evaluator of one strip
						// fewer than the platform has machines.
						k := structural.PhasePairs(req.Iterations)
						if got := distGrid(svc.drawPhases(refusingEvaluator(t, model), dists, bandwidth), k, p.Raw); !sameFloats(got, valueGrid(p.Raw)) {
							t.Fatalf("%s: refused draws served %v, want the raw value's normal grid", spec.Name, got)
						}
					}
				}
			}
		}
	}
	if grids != len(specs)*4*len(shapes)*6 {
		t.Fatalf("compared %d grids", grids)
	}
}

// refusingEvaluator is model's evaluator with its last strip folded into the
// one before: it refuses any draw of the platform's machines.
func refusingEvaluator(t *testing.T, model *structural.SORConfig) *structural.SORPoint {
	t.Helper()
	short := *model
	rows := append([]int(nil), model.Partition.Rows...)
	last := len(rows) - 1
	rows[last-1] += rows[last]
	short.Partition = &sor.Partition{N: model.N, Rows: rows[:last]}
	short.Machines, short.MachineIdx = model.Machines[:last], model.MachineIdx[:last]
	eval, err := short.PointEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	return eval
}

// TestDistGridDoesNotAllocatePerDraw: a distribution-valued cache miss on
// platform 2 stays under 160 allocations (1450 when every draw walked the
// tree), and the grid's share of them — the evaluator, the draw and time
// buffers, the grid — is a handful however many draws there are.
func TestDistGridDoesNotAllocatePerDraw(t *testing.T) {
	svc := simulatedService(t, 2, 1)
	var err error
	if err := svc.Advance(600); err != nil {
		t.Fatal(err)
	}
	req := Request{N: 1000, Iterations: 20, Distribution: true}
	if req.Partition, err = svc.Partition(req); err != nil { // pinned: every Predict is a miss
		t.Fatal(err)
	}
	miss := testing.AllocsPerRun(50, func() {
		if _, err := svc.Predict(req); err != nil {
			t.Fatal(err)
		}
	})
	if miss > 160 {
		t.Errorf("a distribution-valued miss allocates %v times, want <= 160", miss)
	}
	req.Partition = nil
	p, sz := servedFrame(t, svc, req)
	k := structural.PhasePairs(req.Iterations)
	grid := testing.AllocsPerRun(50, func() {
		_ = distGrid(svc.drawPhases(sz.eval, sz.tick.dists, sz.bandwidth), k, p.Raw)
	})
	if grid > 8 || grid >= distSamples/4 {
		t.Errorf("one grid of %d draws allocates %v times, want a handful", distSamples, grid)
	}
}

// TestTickCacheIsBounded: one tick stores maxTickSizes grid sizes; the next
// distinct size is worked out on every call over a frame of its own, with
// the bytes a fresh service gives it, and stores nothing; a stored size
// still hits, and the next tick starts over. The sizes are on an unmonitored
// network: on a monitored one MaxProbeSizes bandwidth monitors cap a tick at
// 64 sizes per (strategy, balancing, Max strategy), so the bound cannot bind.
func TestTickCacheIsBounded(t *testing.T) {
	build := func() *Service {
		spec, err := SimulatedSpec(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		spec.Net = nil
		svc, err := NewServiceFromSpec(&spec, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Advance(300); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	full, fresh := build(), build()
	for i := 0; i < maxTickSizes; i++ {
		if _, err := full.Predict(Request{N: 100 + i, Iterations: 5}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(full.tick.sizes); got != maxTickSizes {
		t.Fatalf("%d sizes stored after %d asked", got, maxTickSizes)
	}
	hits, misses := full.metrics.cacheHits.Value(), full.metrics.cacheMisses.Value()
	over := Request{N: 100 + maxTickSizes, Iterations: 7, Levels: []float64{0.9}}
	want, err := fresh.Predict(over)
	if err != nil {
		t.Fatal(err)
	}
	for ask := 0; ask < 2; ask++ {
		got, err := full.Predict(over)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value || got.Raw != want.Raw || !sameFloats(got.Dist.Calibrated, want.Dist.Calibrated) || got.Dist.Intervals[0] != want.Dist.Intervals[0] {
			t.Fatalf("fresh %+v, full %+v", want, got)
		}
	}
	if got := len(full.tick.sizes); got != maxTickSizes {
		t.Fatalf("%d sizes stored after a size past the bound", got)
	}
	// A stored size still hits, with another iteration count too.
	for _, its := range []int{5, 9} {
		if _, err := full.Predict(Request{N: 107, Iterations: its}); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := full.metrics.cacheHits.Value()-hits, full.metrics.cacheMisses.Value()-misses; h != 2 || m != 2 {
		t.Fatalf("%d hits and %d misses, want the stored size's 2 and the unstored one's 2", h, m)
	}
	if err := full.Advance(5); err != nil {
		t.Fatal(err)
	}
	if _, err := full.Predict(over); err != nil {
		t.Fatal(err)
	}
	if got := len(full.tick.sizes); got != 1 {
		t.Fatalf("%d sizes stored after the first request of a new tick", got)
	}
}
