package stochastic

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// withProcs runs f with GOMAXPROCS set to procs, which is the worker count
// an MC engine runs on, and restores the setting afterwards.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

func TestMCMomentsIdenticalAcrossJobs(t *testing.T) {
	f := func(rng *rand.Rand) float64 { return 3 + 0.5*rng.NormFloat64() }
	var base Value
	var err error
	withProcs(1, func() { base, err = MC{Seed: 42}.Moments(10000, f) })
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 3, 8} {
		var v Value
		withProcs(procs, func() { v, err = MC{Seed: 42}.Moments(10000, f) })
		if err != nil {
			t.Fatal(err)
		}
		if v != base {
			t.Errorf("GOMAXPROCS=%d: %v differs from GOMAXPROCS=1 %v", procs, v, base)
		}
	}
}

func TestMCSamplesIdenticalAcrossJobs(t *testing.T) {
	f := func(rng *rand.Rand) float64 { return rng.Float64() }
	var base []float64
	var err error
	withProcs(1, func() { base, err = MC{Seed: 7}.Samples(999, f) }) // not a multiple of the shard count
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 8} {
		var xs []float64
		withProcs(procs, func() { xs, err = MC{Seed: 7}.Samples(999, f) })
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if xs[i] != base[i] {
				t.Fatalf("GOMAXPROCS=%d: sample %d is %g, GOMAXPROCS=1 gave %g", procs, i, xs[i], base[i])
			}
		}
	}
}

func TestMCMomentsMatchSamples(t *testing.T) {
	// The streaming moments must agree with FromSample over the identical
	// draws to floating-point accuracy.
	mc := MC{Seed: 11}
	f := func(rng *rand.Rand) float64 { return 10 + 2*rng.NormFloat64() }
	xs, err := mc.Samples(20000, f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FromSample(xs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mc.Moments(20000, f)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEqual(want, 1e-9) {
		t.Errorf("Moments %v vs FromSample %v", got, want)
	}
	// And both should recover the true distribution decently.
	if math.Abs(got.Mean-10) > 0.1 || math.Abs(got.Spread-4) > 0.2 {
		t.Errorf("moments far from truth: %v", got)
	}
}

func TestMCSeedAndShardsChangeStreams(t *testing.T) {
	f := func(rng *rand.Rand) float64 { return rng.NormFloat64() }
	a, _ := MC{Seed: 1}.Moments(5000, f)
	b, _ := MC{Seed: 2}.Moments(5000, f)
	if a == b {
		t.Error("different seeds produced identical moments")
	}
	a2, _ := MC{Seed: 1}.Moments(5000, f)
	if a != a2 {
		t.Error("same configuration not reproducible")
	}
	// One draw per shard: draw s is the first of shard s's own stream, not
	// the s-th draw of one stream shared across shards, and no two shards
	// start alike.
	xs, _ := MC{Seed: 1}.Samples(mcShards, f)
	seen := map[float64]bool{}
	for s, x := range xs {
		if want := rand.New(&mcSource{state: uint64(MC{Seed: 1}.shardSeed(s))}).NormFloat64(); x != want {
			t.Fatalf("draw %d is %g, want shard %d's first draw %g", s, x, s, want)
		}
		if seen[x] {
			t.Fatalf("shard %d starts with %g, as an earlier shard does", s, x)
		}
		seen[x] = true
	}
}

func TestMCFewerSamplesThanShards(t *testing.T) {
	// n < Shards leaves some shards empty; every draw must still happen
	// exactly once and the merge must skip the empty shards.
	f := func(rng *rand.Rand) float64 { return 1 }
	v, err := MC{Seed: 3}.Moments(5, f)
	if err != nil {
		t.Fatal(err)
	}
	if v.Mean != 1 || v.Spread != 0 {
		t.Errorf("constant sample summarized as %v", v)
	}
	xs, err := MC{Seed: 3}.Samples(5, f)
	if err != nil || len(xs) != 5 {
		t.Fatalf("Samples=%v err=%v", xs, err)
	}
}

func TestMCValidation(t *testing.T) {
	f := func(rng *rand.Rand) float64 { return 0 }
	if _, err := (MC{Seed: 1}).Moments(0, f); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := (MC{Seed: 1}).Samples(-3, f); err == nil {
		t.Error("negative n should fail")
	}
}

func TestMCMergeAgainstDirect(t *testing.T) {
	// Property check of the Chan et al. merge: merging split halves equals
	// accumulating the whole stream.
	xs := []float64{1, 4, -2, 8, 3.5, 0, 7, 7, -1, 2.25}
	for split := 1; split < len(xs); split++ {
		var a, b, whole mcMoments
		for _, x := range xs[:split] {
			a.add(x)
			whole.add(x)
		}
		for _, x := range xs[split:] {
			b.add(x)
			whole.add(x)
		}
		m := a.merge(b)
		if m.n != whole.n || math.Abs(m.mean-whole.mean) > 1e-12 || math.Abs(m.m2-whole.m2) > 1e-9 {
			t.Errorf("split %d: merged %+v vs direct %+v", split, m, whole)
		}
	}
}
