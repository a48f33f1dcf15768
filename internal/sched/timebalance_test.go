package sched

import (
	"math"
	"testing"

	"prodpred/internal/cluster"
	"prodpred/internal/simenv"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
)

func platform1Machines() []cluster.Machine {
	p := cluster.Platform1()
	out := make([]cluster.Machine, p.Size())
	for i := range out {
		out[i] = p.Machine(i)
	}
	return out
}

func dedicatedLoads(n int) []stochastic.Value {
	out := make([]stochastic.Value, n)
	for i := range out {
		out[i] = stochastic.Point(1)
	}
	return out
}

func TestStripTime(t *testing.T) {
	m := cluster.Sparc2("a") // 0.5e6 elem/s
	link := cluster.Ethernet10Mbit()
	// 100 rows x 98 cols at full availability: compute = 9800/0.5e6.
	got := StripTime(100, 100, 0, m, 1.0, link)
	want := 100 * 98 / 0.5e6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("compute-only StripTime=%g want %g", got, want)
	}
	// Neighbours add 4 transfers each.
	ghost := 98 * 8.0
	per := ghost/1.25e6 + 1e-3
	got2 := StripTime(100, 100, 2, m, 1.0, link)
	if math.Abs(got2-(want+8*per)) > 1e-12 {
		t.Errorf("comm StripTime=%g want %g", got2, want+8*per)
	}
	// Load floors at 0.01.
	if StripTime(10, 100, 0, m, 0, link) != StripTime(10, 100, 0, m, 0.01, link) {
		t.Error("zero load should floor")
	}
}

func TestTimeBalancedPartitionValidation(t *testing.T) {
	ms := platform1Machines()
	link := cluster.Ethernet10Mbit()
	if _, err := TimeBalancedPartition(100, nil, nil, link, 5); err == nil {
		t.Error("no machines should fail")
	}
	if _, err := TimeBalancedPartition(100, ms, dedicatedLoads(2), link, 5); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := TimeBalancedPartition(100, ms, dedicatedLoads(4), link, -1); err == nil {
		t.Error("negative refinements should fail")
	}
	if _, err := TimeBalancedPartition(100, ms, dedicatedLoads(4), cluster.Link{}, 5); err == nil {
		t.Error("bad link should fail")
	}
	bad := append([]cluster.Machine(nil), ms...)
	bad[0] = cluster.Machine{Name: "x"}
	if _, err := TimeBalancedPartition(100, bad, dedicatedLoads(4), link, 5); err == nil {
		t.Error("bad machine should fail")
	}
}

func TestTimeBalancedPartitionReducesImbalance(t *testing.T) {
	// Small grid on a heterogeneous platform: communication is a large
	// share of strip time, so capacity-proportional cuts leave the
	// interior strips overloaded.
	ms := platform1Machines()
	loads := dedicatedLoads(4)
	link := cluster.Ethernet10Mbit()
	n := 120

	capWeights := make([]float64, 4)
	for i, m := range ms {
		capWeights[i] = m.ElemRate
	}
	capPart, err := sor.NewWeightedPartition(n, capWeights)
	if err != nil {
		t.Fatal(err)
	}
	capImb, err := Imbalance(capPart, n, ms, loads, link)
	if err != nil {
		t.Fatal(err)
	}

	balPart, err := TimeBalancedPartition(n, ms, loads, link, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := balPart.Validate(); err != nil {
		t.Fatal(err)
	}
	balImb, err := Imbalance(balPart, n, ms, loads, link)
	if err != nil {
		t.Fatal(err)
	}
	if balImb >= capImb {
		t.Errorf("time-balanced imbalance %.3f should beat capacity %.3f", balImb, capImb)
	}
	if balImb > 1.5 {
		t.Errorf("residual imbalance %.3f too high", balImb)
	}
}

func TestTimeBalancedPartitionBeatsCapacityInSimulation(t *testing.T) {
	// End-to-end: the refined decomposition should run faster on the
	// simulator for a comm-heavy problem.
	plat := cluster.Platform1()
	env, err := simenv.NewDedicated(plat)
	if err != nil {
		t.Fatal(err)
	}
	ms := platform1Machines()
	loads := dedicatedLoads(4)
	link := cluster.Ethernet10Mbit()
	n := 120

	run := func(part *sor.Partition) float64 {
		b, err := sor.NewSimBackend(env, part, sor.IdentityMapping(4))
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run(20, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}
	capWeights := make([]float64, 4)
	for i, m := range ms {
		capWeights[i] = m.ElemRate
	}
	capPart, err := sor.NewWeightedPartition(n, capWeights)
	if err != nil {
		t.Fatal(err)
	}
	balPart, err := TimeBalancedPartition(n, ms, loads, link, 8)
	if err != nil {
		t.Fatal(err)
	}
	tc := run(capPart)
	tb := run(balPart)
	if tb >= tc {
		t.Errorf("time-balanced %.4fs should beat capacity-proportional %.4fs", tb, tc)
	}
}

func TestTimeBalancedRespectsLoads(t *testing.T) {
	// A heavily loaded fast machine should receive fewer rows than when
	// dedicated.
	ms := platform1Machines()
	link := cluster.Ethernet10Mbit()
	n := 200
	ded, err := TimeBalancedPartition(n, ms, dedicatedLoads(4), link, 8)
	if err != nil {
		t.Fatal(err)
	}
	loads := dedicatedLoads(4)
	loads[3] = stochastic.New(0.3, 0.05) // sparc10 at 30% availability
	loaded, err := TimeBalancedPartition(n, ms, loads, link, 8)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Rows[3] >= ded.Rows[3] {
		t.Errorf("loaded machine rows %d should drop from %d", loaded.Rows[3], ded.Rows[3])
	}
}

func TestImbalanceValidation(t *testing.T) {
	ms := platform1Machines()
	link := cluster.Ethernet10Mbit()
	if _, err := Imbalance(nil, 100, ms, dedicatedLoads(4), link); err == nil {
		t.Error("nil partition should fail")
	}
	part, _ := sor.NewEqualPartition(100, 4)
	if _, err := Imbalance(part, 100, ms[:2], dedicatedLoads(4), link); err == nil {
		t.Error("length mismatch should fail")
	}
	v, err := Imbalance(part, 100, ms, dedicatedLoads(4), link)
	if err != nil || v < 1 {
		t.Errorf("imbalance=%g err=%v", v, err)
	}
}

func TestPromiseFor(t *testing.T) {
	v := stochastic.New(100, 20) // sigma 10
	p5, err := PromiseFor(v, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// 95th percentile of N(100,10) = 116.4.
	if math.Abs(p5-116.448) > 0.1 {
		t.Errorf("promise=%g want ~116.45", p5)
	}
	p50, err := PromiseFor(v, 0.5)
	if err != nil || math.Abs(p50-100) > 1e-9 {
		t.Errorf("median promise=%g err=%v", p50, err)
	}
	// Tighter tolerance -> later promise.
	p1, _ := PromiseFor(v, 0.01)
	if p1 <= p5 {
		t.Errorf("1%% promise %g should exceed 5%% promise %g", p1, p5)
	}
	if _, err := PromiseFor(v, 0); err == nil {
		t.Error("missProb=0 should fail")
	}
	if _, err := PromiseFor(v, 1); err == nil {
		t.Error("missProb=1 should fail")
	}
	// Point prediction: promise is the point.
	pp, err := PromiseFor(stochastic.Point(42), 0.05)
	if err != nil || pp != 42 {
		t.Errorf("point promise=%g err=%v", pp, err)
	}
}
