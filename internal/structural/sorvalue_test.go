package structural

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prodpred/internal/stochastic"
)

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// compareValueToTree holds Repeat.Of(PhaseValue(loads, bw)) to the
// expression tree evaluated at the same stochastic parameters: the same mean
// and spread by bit pattern (any NaN equals any NaN), or the same error
// text.
func compareValueToTree(t *testing.T, cfg *SORConfig, loads []stochastic.Value, bw stochastic.Value) {
	t.Helper()
	params := Params{BWAvailParam: bw}
	for p, l := range loads {
		params[LoadParam(p)] = l
	}
	want, wantErr := cfg.Predict(params)
	ev, err := cfg.PointEvaluator()
	if err != nil {
		t.Fatalf("PointEvaluator on a config Build accepts: %v", err)
	}
	phase, gotErr := ev.PhaseValue(loads, bw)
	describe := func() string {
		return fmt.Sprintf("rows %v idx %v strategy %d rel %v loads %v bw %v",
			cfg.Partition.Rows, cfg.MachineIdx, cfg.MaxStrategy, cfg.IterationRel, loads, bw)
	}
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: PhaseValue error %v, tree error %v", describe(), gotErr, wantErr)
		}
		return
	}
	got := Repeat{K: PhasePairs(cfg.Iterations), Rel: cfg.IterationRel}.Of(phase)
	if !sameBits(got.Mean, want.Mean) || !sameBits(got.Spread, want.Spread) {
		t.Fatalf("%s: evaluator %v ± %v (%#x, %#x), tree %v ± %v (%#x, %#x)", describe(),
			got.Mean, got.Spread, math.Float64bits(got.Mean), math.Float64bits(got.Spread),
			want.Mean, want.Spread, math.Float64bits(want.Mean), math.Float64bits(want.Spread))
	}
}

// drawValue draws an availability the way the service meets them — a
// forecast with a spread, a point value (dedicated, floored, or one of the
// point evaluator's corners), now and then a spread wider than the mean —
// and at the edges of the float range, where operations that agree in the
// middle of it part.
func drawValue(rng *rand.Rand) stochastic.Value {
	switch rng.Intn(7) {
	case 0:
		return stochastic.Point(drawAvail(rng))
	case 1:
		return stochastic.Value{Mean: 0.01, Spread: rng.Float64()}
	case 2:
		return stochastic.Value{Mean: 1e-300, Spread: 1e-300 * rng.Float64()}
	case 3:
		// A spread whose square underflows: a root-sum-square of it and a
		// point value's 0 is 0, a related sum keeps it.
		return stochastic.Value{Mean: 0.5 + rng.Float64(), Spread: 1e-170 * rng.Float64()}
	default:
		mean := 1.5 * (1 - rng.Float64())
		return stochastic.Value{Mean: mean, Spread: mean * 1.2 * rng.Float64()}
	}
}

// TestSORValueMatchesTree: the value evaluator is the expression tree — for
// 1..8 strips, every Max strategy, both iteration relations and every
// mapping, over stochastic, point, zero and 1e-300 loads and stochastic,
// point and zero bandwidth fractions, Repeat.Of(PhaseValue) is
// Build().Eval() by the bits of mean and spread, and a zero-mean load or
// bandwidth fraction is the tree's error, the one the tree reaches first.
func TestSORValueMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	strategies := []stochastic.MaxStrategy{stochastic.LargestMean, stochastic.LargestMagnitude, stochastic.Probabilistic}
	for p := 1; p <= 8; p++ {
		for _, strategy := range strategies {
			for _, rel := range []Relation{Related, Unrelated} {
				for mapping := 0; mapping < numMappings; mapping++ {
					cfg := pointTestConfig(rng, p, strategy, rel, mapping)
					loads := make([]stochastic.Value, p)
					for _, c := range pointCorners {
						for i := range loads {
							loads[i] = stochastic.Point(c)
						}
						compareValueToTree(t, cfg, loads, stochastic.Point(c))
						compareValueToTree(t, cfg, loads, stochastic.Value{Mean: 0.4, Spread: 0.3})
					}
					for draw := 0; draw < 150; draw++ {
						for i := range loads {
							loads[i] = drawValue(rng)
						}
						compareValueToTree(t, cfg, loads, drawValue(rng))
					}
					// Zero divisors: a zero mean is refused whatever its
					// spread, the first zero load in strip order wins over a
					// later one and over the bandwidth fraction, and a zero
					// bandwidth fraction only matters where a transfer is
					// charged.
					for i := range loads {
						loads[i] = drawValue(rng)
					}
					compareValueToTree(t, cfg, loads, stochastic.Value{})
					compareValueToTree(t, cfg, loads, stochastic.Value{Spread: 0.5})
					loads[rng.Intn(p)] = stochastic.Value{Spread: rng.Float64()}
					loads[rng.Intn(p)] = stochastic.Value{}
					compareValueToTree(t, cfg, loads, stochastic.Value{})
					compareValueToTree(t, cfg, loads, drawValue(rng))
				}
			}
		}
	}
}

// TestSORPointTimeIsKTimesPhase: the tree's time is 2·NumIts times Phase,
// and Phase is the same number whatever the iteration count — the property
// that lets one sorted set of phase draws serve every iteration count of a
// grid size.
func TestSORPointTimeIsKTimesPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		cfg := fuzzShape(rng.Uint32())
		p := cfg.Partition.P()
		loads := make([]float64, p)
		for i := range loads {
			loads[i] = drawAvail(rng)
		}
		bw := drawAvail(rng)
		var phases []float64
		for _, iterations := range []int{1, 7, cfg.Iterations, 1 << 24} {
			c := *cfg
			c.Iterations = iterations
			comparePointToTree(t, &c, loads, bw)
			ev, err := c.PointEvaluator()
			if err != nil {
				t.Fatal(err)
			}
			phase, err := ev.Phase(loads, bw)
			if err != nil {
				t.Fatal(err)
			}
			phases = append(phases, phase)
		}
		for _, phase := range phases[1:] {
			if !sameBits(phase, phases[0]) {
				t.Fatalf("Phase moved with the iteration count: %v", phases)
			}
		}
	}
}

// FuzzSORValueMatchesTree is TestSORValueMatchesTree with the fuzzer
// choosing the config and the bit patterns of every mean and spread: raw
// holds the loads and then the bandwidth fraction, a mean and a spread of
// eight bytes each, and a short raw leaves the rest at the point value 1.
func FuzzSORValueMatchesTree(f *testing.F) {
	corners := append([]float64{0, math.Copysign(0, -1), -1, 5e-324, 1e-162, math.MaxFloat64, math.Inf(-1), 0.37}, pointCorners...)
	for i, c := range corners {
		raw := make([]byte, 0, 9*16)
		for k := 0; k < 9; k++ {
			mean, spread := c, corners[(i+k)%len(corners)]
			if k%3 == 1 {
				mean, spread = 0.6, 0.25
			}
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(mean))
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(spread))
		}
		f.Add(uint32(i*53+7), raw)
		f.Add(uint32(i*4099+191), raw[:16*(1+i%9)])
	}
	f.Fuzz(func(t *testing.T, shape uint32, raw []byte) {
		cfg := fuzzShape(shape)
		vals := make([]stochastic.Value, cfg.Partition.P()+1)
		for i := range vals {
			vals[i] = stochastic.Point(1)
			if len(raw) >= 16*(i+1) {
				vals[i] = stochastic.Value{
					Mean:   math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:])),
					Spread: math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:])),
				}
			}
		}
		p := cfg.Partition.P()
		compareValueToTree(t, cfg, vals[:p], vals[p])
	})
}
