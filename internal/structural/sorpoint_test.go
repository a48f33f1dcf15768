package structural

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prodpred/internal/cluster"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
)

// Strip-to-machine mappings the oracle comparison runs over.
const (
	mapNil      = iota // MachineIdx nil: every strip on its own machine
	mapIdentity        // the serving layer's mapping
	mapPairs           // neighbours share a machine two by two
	mapOne             // every strip on one machine: no transfer is charged
	numMappings
)

// pointTestConfig builds a valid SOR config of p strips with an uneven
// partition, unequal machines and the given Max strategy, iteration
// relation and strip-to-machine mapping; everything else comes from rng.
func pointTestConfig(rng *rand.Rand, p int, strategy stochastic.MaxStrategy, rel Relation, mapping int) *SORConfig {
	rows := make([]int, p)
	machines := make([]cluster.Machine, p)
	n := 2
	for i := range rows {
		rows[i] = 1
		if rng.Intn(4) > 0 {
			rows[i] += rng.Intn(60)
		}
		n += rows[i]
		machines[i] = cluster.Machine{
			Name:     fmt.Sprintf("m%d", i),
			ElemRate: 1e5 * (0.25 + 8*rng.Float64()),
			MemoryMB: 64,
		}
	}
	var idx []int
	if mapping != mapNil {
		idx = make([]int, p)
		for i := range idx {
			switch mapping {
			case mapIdentity:
				idx[i] = i
			case mapPairs:
				idx[i] = i / 2
			}
		}
	}
	latency := 0.0
	if rng.Intn(3) > 0 {
		latency = 2e-3 * rng.Float64()
	}
	return &SORConfig{
		N:            n,
		Iterations:   1 + rng.Intn(50),
		Partition:    &sor.Partition{N: n, Rows: rows},
		Machines:     machines,
		MachineIdx:   idx,
		Link:         cluster.Link{DedBW: 1e6 * (0.5 + 2*rng.Float64()), Latency: latency},
		MaxStrategy:  strategy,
		IterationRel: rel,
	}
}

// comparePointToTree holds PhasePairs(Iterations)·Phase(loads, bw) to the
// expression tree evaluated at the same values as point parameters: the same
// mean by bit pattern (any NaN equals any NaN), or the same error text.
func comparePointToTree(t *testing.T, cfg *SORConfig, loads []float64, bw float64) {
	t.Helper()
	params := Params{BWAvailParam: stochastic.Point(bw)}
	for p, l := range loads {
		params[LoadParam(p)] = stochastic.Point(l)
	}
	want, wantErr := cfg.Predict(params)
	ev, err := cfg.PointEvaluator()
	if err != nil {
		t.Fatalf("PointEvaluator on a config Build accepts: %v", err)
	}
	got, gotErr := ev.Phase(loads, bw)
	got *= PhasePairs(cfg.Iterations)
	describe := func() string {
		return fmt.Sprintf("rows %v idx %v strategy %d rel %v loads %v bw %v",
			cfg.Partition.Rows, cfg.MachineIdx, cfg.MaxStrategy, cfg.IterationRel, loads, bw)
	}
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: Phase error %v, tree error %v", describe(), gotErr, wantErr)
		}
		return
	}
	if math.Float64bits(got) != math.Float64bits(want.Mean) && !(math.IsNaN(got) && math.IsNaN(want.Mean)) {
		t.Fatalf("%s: 2·NumIts·Phase %v (%#x), tree %v (%#x)", describe(),
			got, math.Float64bits(got), want.Mean, math.Float64bits(want.Mean))
	}
}

// pointCorners are the availabilities the comparison is drawn from besides
// random ones: the serving floor, dedicated, a value whose square underflows
// (Recip's spread turns NaN), values whose products overflow, and the
// non-finite ones a widened tail quantile can reach.
var pointCorners = []float64{0.01, 1, 1e-300, 1e300, math.Inf(1), math.NaN()}

func drawAvail(rng *rand.Rand) float64 {
	if k := rng.Intn(2 * len(pointCorners)); k < len(pointCorners) {
		return pointCorners[k]
	}
	return 1.5 * (1 - rng.Float64()) // (0, 1.5]
}

// TestSORPointMatchesTree: the point evaluator is the expression tree at
// zero spread — for 1..8 strips, every Max strategy, both iteration
// relations and every mapping, over corner and random availabilities,
// 2·NumIts·Phase is Build().Eval()'s mean bit for bit, and a zero load or
// bandwidth fraction is the tree's error.
func TestSORPointMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	strategies := []stochastic.MaxStrategy{stochastic.LargestMean, stochastic.LargestMagnitude, stochastic.Probabilistic}
	for p := 1; p <= 8; p++ {
		for _, strategy := range strategies {
			for _, rel := range []Relation{Related, Unrelated} {
				for mapping := 0; mapping < numMappings; mapping++ {
					cfg := pointTestConfig(rng, p, strategy, rel, mapping)
					loads := make([]float64, p)
					for _, c := range pointCorners {
						for i := range loads {
							loads[i] = c
						}
						comparePointToTree(t, cfg, loads, c)
						comparePointToTree(t, cfg, loads, 1)
					}
					for draw := 0; draw < 150; draw++ {
						for i := range loads {
							loads[i] = drawAvail(rng)
						}
						comparePointToTree(t, cfg, loads, drawAvail(rng))
					}
					// Zero divisors: the first zero load in strip order wins,
					// and a zero bandwidth fraction only matters where a
					// transfer is charged.
					for i := range loads {
						loads[i] = drawAvail(rng)
					}
					comparePointToTree(t, cfg, loads, 0)
					loads[rng.Intn(p)] = 0
					loads[rng.Intn(p)] = 0
					comparePointToTree(t, cfg, loads, 0)
					comparePointToTree(t, cfg, loads, drawAvail(rng))
				}
			}
		}
	}
}

// Configs the tree refuses are refused, with the same error; Partition
// admits no zero-row strip, so there is no zero-work term to compare.
func TestSORPointRejectsWhatBuildRejects(t *testing.T) {
	good := platform1Config(t, 100, 10)
	bads := map[string]func(c *SORConfig){
		"nil partition":  func(c *SORConfig) { c.Partition = nil },
		"zero-row strip": func(c *SORConfig) { c.Partition = &sor.Partition{N: c.N, Rows: []int{c.N - 2, 0, 0, 0}} },
		"N mismatch":     func(c *SORConfig) { c.N++ },
		"no iterations":  func(c *SORConfig) { c.Iterations = 0 },
		"machine count":  func(c *SORConfig) { c.Machines = c.Machines[:2] },
		"mapping length": func(c *SORConfig) { c.MachineIdx = []int{0} },
		"no link":        func(c *SORConfig) { c.Link = cluster.Link{} },
	}
	for name, breakIt := range bads {
		bad := *good
		breakIt(&bad)
		_, wantErr := bad.Build()
		_, err := bad.PointEvaluator()
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: PointEvaluator %v, Build %v", name, err, wantErr)
		}
	}
	// A config of no strips builds, and fails where its empty Max is read.
	none := &SORConfig{N: 2, Iterations: 1, Partition: &sor.Partition{N: 2}, Link: good.Link}
	_, wantErr := none.Predict(Params{})
	if _, err := none.PointEvaluator(); wantErr == nil || err == nil || err.Error() != wantErr.Error() {
		t.Errorf("no strips: PointEvaluator %v, tree %v", err, wantErr)
	}
	bad := *good
	bad.MaxStrategy = 7
	if _, err := bad.PointEvaluator(); err == nil {
		t.Error("unknown max strategy accepted")
	}
	ev, err := good.PointEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Phase([]float64{1, 1}, 1); err == nil {
		t.Error("two loads for four strips accepted")
	}
}

// fuzzShape decodes a fuzzed word into a config: strips, strategy, relation,
// mapping, and the seed of everything pointTestConfig draws.
func fuzzShape(shape uint32) *SORConfig {
	p := 1 + int(shape%8)
	strategy := stochastic.MaxStrategy(shape / 8 % 3)
	rel := Relation(shape / 24 % 2)
	mapping := int(shape / 48 % numMappings)
	return pointTestConfig(rand.New(rand.NewSource(int64(shape/192))), p, strategy, rel, mapping)
}

// FuzzSORPointMatchesTree is TestSORPointMatchesTree with the fuzzer
// choosing the config and the bit patterns of every availability: raw holds
// the loads and then the bandwidth fraction, eight bytes each, and a short
// raw leaves the rest at 1.
func FuzzSORPointMatchesTree(f *testing.F) {
	corners := append([]float64{0, math.Copysign(0, -1), -1, 5e-324, 1e-162, math.MaxFloat64, math.Inf(-1), 0.37}, pointCorners...)
	for i, c := range corners {
		raw := make([]byte, 0, 9*8)
		for k := 0; k < 9; k++ {
			v := c
			if k%3 == 1 {
				v = corners[(i+k)%len(corners)]
			}
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(uint32(i*53+7), raw)
		f.Add(uint32(i*4099+191), raw[:8*(1+i%9)])
	}
	f.Fuzz(func(t *testing.T, shape uint32, raw []byte) {
		cfg := fuzzShape(shape)
		vals := make([]float64, cfg.Partition.P()+1)
		for i := range vals {
			vals[i] = 1
			if len(raw) >= 8*(i+1) {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		p := cfg.Partition.P()
		comparePointToTree(t, cfg, vals[:p], vals[p])
	})
}
