package sor

import (
	"fmt"
	"math"
	"testing"

	"prodpred/internal/cluster"
	"prodpred/internal/load"
	"prodpred/internal/simenv"
)

func fig7Env(t *testing.T) *simenv.Env {
	t.Helper()
	slow, err := load.NewSingleMode(0.3, 0.05, 0.9, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ded := load.Dedicated()
	env, err := simenv.New(cluster.Platform1(), []load.Process{ded, slow, ded, ded}, ded)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// platform2Env is the environment predict.SimulatedSpec(2, 1) builds:
// bursty CPUs seeded 1 + 17i and contended ethernet seeded 1000.
func platform2Env(t *testing.T) *simenv.Env {
	t.Helper()
	plat := cluster.Platform2()
	cpu := make([]load.Process, plat.Size())
	for i := range cpu {
		p, err := load.Platform2FourModeBursty(1 + int64(i)*17)
		if err != nil {
			t.Fatal(err)
		}
		cpu[i] = p
	}
	net, err := load.EthernetContention(1000)
	if err != nil {
		t.Fatal(err)
	}
	env, err := simenv.New(plat, cpu, net)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestSimBackendGolden pins the timing walk bit for bit: the Float64bits of
// every SimResult field, recorded while Run still swept a real grid beside
// the walk. Dropping the sweep must not move one of them.
func TestSimBackendGolden(t *testing.T) {
	cases := []struct {
		name       string
		env        func(*testing.T) *simenv.Env
		n          int
		weighted   bool // capacity-weighted strips, else equal
		strips     int
		machines   []int
		iterations int
		start      float64
		exec       uint64
		phases     [4]uint64 // RedComp, RedComm, BlackComp, BlackComm
		iterEnd    []uint64
		maxSkew    uint64
	}{
		// fig7: machine 1 of Platform 1 under single-mode load, equal strips.
		{
			name: "fig7", env: fig7Env, n: 402,
			strips: 4, machines: IdentityMapping(4), iterations: 15, start: 0,
			exec:   0x40140fe94cc4fc7a,
			phases: [4]uint64{0x40026d43edc5693d, 0x4002dba0f83a38ee, 0x400247a6d65dc089, 0x4002c3a1e719bae2},
			iterEnd: []uint64{
				0x3fd74ea18954b80b, 0x3fe74ea18954b80b, 0x3ff1767174034528, 0x3ff736acc8c6d720,
				0x3ffcf6e81d8a6918, 0x400163054292523c, 0x400452ff7da55d10, 0x400742f9b8b867e4,
				0x4009d1f7c78ce105, 0x400c3ca19d32408f, 0x400ea74b72d7a019, 0x401085ccec74c8fc,
				0x4011b3db3c5292c4, 0x4012e1e98c305c8c, 0x40140fe94cc4fc7a,
			},
			maxSkew: 0x3fc48a393aa73f80,
		},
		// predict.SimulatedSpec(2, 1)'s platform, capacity-weighted strips.
		{
			name: "platform2-weighted", env: platform2Env, n: 800, weighted: true,
			strips: 4, machines: IdentityMapping(4), iterations: 10, start: 1234.5,
			exec:   0x40149d6c71216600,
			phases: [4]uint64{0x40031ba7eacdd600, 0x4000b9eaaada1c00, 0x40029b84214e1800, 0x400126d505a83c00},
			iterEnd: []uint64{
				0x3fe36419cbfbf800, 0x3ff2d62b64cf6c00, 0x3ffbcea455a18400, 0x400236c3d183fa00,
				0x40065bab10e1e600, 0x400a55c818539200, 0x400e387119556000, 0x4011035de1617200,
				0x4012daba20ee1400, 0x40149d6c71216600,
			},
			maxSkew: 0x3fd8f26c98fda000,
		},
		// Every strip on one machine: exchanges are memory copies.
		{
			name: "same-machine", env: platform2Env, n: 42,
			strips: 4, machines: []int{3, 3, 3, 3}, iterations: 10, start: 500,
			exec:   0x3f667f945b980000,
			phases: [4]uint64{0x3f567f945b980000, 0x0000000000000000, 0x3f567f945b980000, 0x0000000000000000},
			iterEnd: []uint64{
				0x3f31ffa9e2e00000, 0x3f41ffa9e2e00000, 0x3f4aff7ed4500000, 0x3f51ffa9e2e00000,
				0x3f567f945b980000, 0x3f5aff7ed4500000, 0x3f5f7f694d080000, 0x3f61ffa9e2e00000,
				0x3f643f9f1f3c0000, 0x3f667f945b980000,
			},
			maxSkew: 0x0000000000000000,
		},
		{
			name: "one-iteration-two-strips", env: platform2Env, n: 34,
			strips: 2, machines: []int{1, 2}, iterations: 1, start: 77,
			exec:    0x3f803d09da380000,
			phases:  [4]uint64{0x3f531f34a7d80000, 0x3f6fae6e3d900000, 0x3f531f34a7d80000, 0x3f6fae6e3d900000},
			iterEnd: []uint64{0x3f803d09da380000},
			maxSkew: 0x0000000000000000,
		},
		// Strips of 9, 8, 8, 8 rows (an odd element count) sharing machines
		// pairwise: a strip waits only for a neighbour on another machine.
		// The mirrored mapping pins the wait on the other side.
		{
			name: "odd-rows-shared-machines", env: platform2Env, n: 35,
			strips: 4, machines: []int{0, 0, 1, 1}, iterations: 5, start: 42,
			exec:    0x3fa49eaf1d102000,
			phases:  [4]uint64{0x3f7427bbfec6c000, 0x3f93fe36ce5a2000, 0x3f7427bbfec6c000, 0x3f93fe36ce5a2000},
			iterEnd: []uint64{0x3f807ef27da68000, 0x3f907ef27da68000, 0x3f98be6bbc79c000, 0x3fa07ef27da68000, 0x3fa49eaf1d102000},
			maxSkew: 0x3fa3fe36ce5a2000,
		},
		{
			name: "odd-rows-shared-machines-mirrored", env: platform2Env, n: 35,
			strips: 4, machines: []int{1, 1, 0, 0}, iterations: 5, start: 42,
			exec:    0x3fa49eaf1d102000,
			phases:  [4]uint64{0x3f71ea6e37cd4000, 0x3f93fe36ce5a2000, 0x3f71ea6e37cd4000, 0x3f93fe36ce5a2000},
			iterEnd: []uint64{0x3f807ef27da68000, 0x3f907ef27da68000, 0x3f98be6bbc79c000, 0x3fa07ef27da68000, 0x3fa49eaf1d102000},
			maxSkew: 0x3fa3ea27c4836000,
		},
		// Dedicated Platform 1, forty iterations.
		{
			name: "dedicated-40", env: dedicatedSimEnv, n: 34,
			strips: 4, machines: IdentityMapping(4), iterations: 40, start: 0,
			exec:   0x3fd9fc2a8869c682,
			phases: [4]uint64{0x3f84f8b588e36874, 0x3fc99b566f970b91, 0x3f84f8b588e36878, 0x3fc99c4bdcd36dba},
			iterEnd: []uint64{
				0x3f84c9bba0549ebc, 0x3f94c9bba0549ebe, 0x3f9f2e99707eee22, 0x3fa4c9bba0549ebf,
				0x3fa9fc2a8869c66d, 0x3faf2e99707eee1b, 0x3fb230842c4a0ae8, 0x3fb4c9bba0549ec4,
				0x3fb762f3145f32a0, 0x3fb9fc2a8869c67c, 0x3fbc9561fc745a58, 0x3fbf2e99707eee34,
				0x3fc0e3e87244c108, 0x3fc230842c4a0af6, 0x3fc37d1fe64f54e4, 0x3fc4c9bba0549ed2,
				0x3fc616575a59e8c0, 0x3fc762f3145f32ae, 0x3fc8af8ece647c9c, 0x3fc9fc2a8869c68a,
				0x3fcb48c6426f1078, 0x3fcc9561fc745a66, 0x3fcde1fdb679a454, 0x3fcf2e99707eee42,
				0x3fd03d9a95421c18, 0x3fd0e3e87244c10e, 0x3fd18a364f476604, 0x3fd230842c4a0afa,
				0x3fd2d6d2094caff0, 0x3fd37d1fe64f54e6, 0x3fd4236dc351f9dc, 0x3fd4c9bba0549ed2,
				0x3fd570097d5743c8, 0x3fd616575a59e8be, 0x3fd6bca5375c8db4, 0x3fd762f3145f32aa,
				0x3fd80940f161d7a0, 0x3fd8af8ece647c96, 0x3fd955dcab67218c, 0x3fd9fc2a8869c682,
			},
			maxSkew: 0x3f64ff6b858a1880,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := c.env(t)
			var part *Partition
			var err error
			if c.weighted {
				w := make([]float64, c.strips)
				for i := range w {
					w[i] = env.Platform().Machine(c.machines[i]).ElemRate
				}
				part, err = NewWeightedPartition(c.n, w)
			} else {
				part, err = NewEqualPartition(c.n, c.strips)
			}
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewSimBackend(env, part, c.machines)
			if err != nil {
				t.Fatal(err)
			}
			res, err := b.Run(c.iterations, c.start)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != c.iterations || len(res.IterationEnd) != len(c.iterEnd) {
				t.Fatalf("iterations %d, %d IterationEnd entries; want %d, %d", res.Iterations, len(res.IterationEnd), c.iterations, len(c.iterEnd))
			}
			if !(res.ExecTime > 0) {
				t.Errorf("ExecTime=%g", res.ExecTime)
			}
			check := func(what string, got float64, want uint64) {
				t.Helper()
				if math.Float64bits(got) != want {
					t.Errorf("%s = %v (%#016x), want %v (%#016x)", what, got, math.Float64bits(got), math.Float64frombits(want), want)
				}
			}
			check("ExecTime", res.ExecTime, c.exec)
			check("Phases.RedComp", res.Phases.RedComp, c.phases[0])
			check("Phases.RedComm", res.Phases.RedComm, c.phases[1])
			check("Phases.BlackComp", res.Phases.BlackComp, c.phases[2])
			check("Phases.BlackComm", res.Phases.BlackComm, c.phases[3])
			for i, v := range res.IterationEnd {
				check(fmt.Sprintf("IterationEnd[%d]", i), v, c.iterEnd[i])
			}
			check("MaxSkew", res.MaxSkew, c.maxSkew)
		})
	}
}
