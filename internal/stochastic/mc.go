package stochastic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// mcShards is the fixed shard count. It is deliberately larger than any
// plausible worker count so shards stay small enough to balance across
// workers, and it is part of the deterministic identity: changing it
// changes the sample streams.
const mcShards = 64

// MC is a deterministic, sharded Monte Carlo sampling engine: N draws are
// split across mcShards shards, each shard drawing from its own
// rand.Source derived from (Seed, shard index), and shard results are
// combined in shard order. Because the per-shard streams and the merge
// order depend only on (Seed, N) — never on how many of the GOMAXPROCS
// workers happen to execute the shards — results are bit-reproducible on
// any number of cores, one included.
//
// This is what lets the experiment harness's Monte Carlo validation loops
// (Table 2 cross-checks, group-Max ground truth, coverage sweeps) use every
// core without giving up the "deterministic given its seed" contract.
type MC struct {
	Seed int64
}

// splitmix64 is the SplitMix64 finalizer, used to spread (Seed, shard)
// pairs into well-decorrelated shard stream states.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mcSource is a SplitMix64-backed rand.Source64. Its state is a single word
// and seeding is O(1), so standing up one generator per shard stays off the
// profile — math/rand's default source re-initializes a 607-word lagged
// Fibonacci table on every Seed, which dominates small-shard workloads.
// Shard starting states come from the splitmix64 finalizer, so the per-shard
// streams are well-separated counter offsets in a 2^64 state space.
type mcSource struct{ state uint64 }

func (s *mcSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *mcSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *mcSource) Seed(seed int64) { s.state = uint64(seed) }

// shardSeed derives the mcSource starting state for one shard.
func (mc MC) shardSeed(shard int) int64 {
	return int64(splitmix64(uint64(mc.Seed) + uint64(shard)*0x9e3779b97f4a7c15))
}

// run executes gen once per non-empty shard on min(GOMAXPROCS, mcShards)
// workers. Shard s owns draws [s*n/mcShards, (s+1)*n/mcShards).
func (mc MC) run(n int, gen func(shard, lo, hi int, rng *rand.Rand)) error {
	if n <= 0 {
		return fmt.Errorf("stochastic: sample count %d must be positive", n)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), mcShards); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1) - 1)
				if s >= mcShards {
					return
				}
				lo, hi := s*n/mcShards, (s+1)*n/mcShards
				if lo == hi {
					continue
				}
				gen(s, lo, hi, rand.New(&mcSource{state: uint64(mc.shardSeed(s))}))
			}
		}()
	}
	wg.Wait()
	return nil
}

// mcMoments is a streaming moment accumulator: count, mean, and M2 (the
// sum of squared deviations from the mean).
type mcMoments struct {
	n    int
	mean float64
	m2   float64
}

func (m *mcMoments) add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// merge combines two accumulators with the parallel update of Chan,
// Golub & LeVeque; merging in a fixed order makes the result independent
// of which worker produced which part.
func (m mcMoments) merge(o mcMoments) mcMoments {
	if o.n == 0 {
		return m
	}
	if m.n == 0 {
		return o
	}
	n := m.n + o.n
	d := o.mean - m.mean
	return mcMoments{
		n:    n,
		mean: m.mean + d*float64(o.n)/float64(n),
		m2:   m.m2 + o.m2 + d*d*float64(m.n)*float64(o.n)/float64(n),
	}
}

// value converts the accumulated moments to mean ± two sample standard
// deviations, mirroring FromSample.
func (m mcMoments) value() Value {
	if m.n < 2 {
		return Value{Mean: m.mean}
	}
	return Value{Mean: m.mean, Spread: 2 * math.Sqrt(m.m2/float64(m.n-1))}
}

// Moments draws n samples of f and summarizes them as a stochastic value
// (mean ± two sample standard deviations, as FromSample) without
// materializing the sample. The per-shard moments are merged serially in
// shard order, so the result is identical whatever the worker count.
func (mc MC) Moments(n int, f func(*rand.Rand) float64) (Value, error) {
	perShard := make([]mcMoments, mcShards)
	err := mc.run(n, func(shard, lo, hi int, rng *rand.Rand) {
		acc := mcMoments{}
		for k := lo; k < hi; k++ {
			acc.add(f(rng))
		}
		perShard[shard] = acc
	})
	if err != nil {
		return Value{}, err
	}
	total := mcMoments{}
	for _, m := range perShard {
		total = total.merge(m)
	}
	if total.n == 0 {
		return Value{}, errors.New("stochastic: no samples generated")
	}
	return total.value(), nil
}

// Samples draws n samples of f in parallel and returns them in shard order
// — the same slice whatever the worker count. Use this when a consumer needs
// the raw draws (coverage counting, histograms, quantiles) rather than
// moments.
func (mc MC) Samples(n int, f func(*rand.Rand) float64) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stochastic: sample count %d must be positive", n)
	}
	out := make([]float64, n)
	err := mc.run(n, func(shard, lo, hi int, rng *rand.Rand) {
		for k := lo; k < hi; k++ {
			out[k] = f(rng)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
