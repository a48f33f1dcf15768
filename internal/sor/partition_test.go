package sor

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewEqualPartition(t *testing.T) {
	pt, err := NewEqualPartition(10, 4) // 8 interior rows over 4 procs
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range pt.Rows {
		if r != 2 {
			t.Errorf("Rows=%v want all 2", pt.Rows)
		}
	}
	lo, hi := pt.Bounds(0)
	if lo != 1 || hi != 3 {
		t.Errorf("Bounds(0)=%d,%d", lo, hi)
	}
	lo, hi = pt.Bounds(3)
	if lo != 7 || hi != 9 {
		t.Errorf("Bounds(3)=%d,%d", lo, hi)
	}
}

func TestNewEqualPartitionRemainder(t *testing.T) {
	pt, err := NewEqualPartition(12, 4) // 10 rows over 4: 3,3,2,2 in some order
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, r := range pt.Rows {
		sum += r
		if r < 2 || r > 3 {
			t.Errorf("Rows=%v", pt.Rows)
		}
	}
	if sum != 10 {
		t.Errorf("sum=%d", sum)
	}
}

func TestNewWeightedPartitionProportional(t *testing.T) {
	// Weights 1:3 over 8 rows -> 2 and 6.
	pt, err := NewWeightedPartition(10, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Rows[0] != 2 || pt.Rows[1] != 6 {
		t.Errorf("Rows=%v want [2 6]", pt.Rows)
	}
}

func TestNewWeightedPartitionFloors(t *testing.T) {
	// A zero-weight processor still receives one row.
	pt, err := NewWeightedPartition(10, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Rows[0] != 1 || pt.Rows[1] != 7 {
		t.Errorf("Rows=%v want [1 7]", pt.Rows)
	}
	if err := pt.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewWeightedPartitionValidation(t *testing.T) {
	if _, err := NewWeightedPartition(10, nil); err == nil {
		t.Error("no processors should fail")
	}
	if _, err := NewWeightedPartition(2, []float64{1}); err == nil {
		t.Error("tiny grid should fail")
	}
	if _, err := NewWeightedPartition(5, []float64{1, 1, 1, 1}); err == nil {
		t.Error("more procs than rows should fail")
	}
	if _, err := NewWeightedPartition(10, []float64{1, -1}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewWeightedPartition(10, []float64{0, 0}); err == nil {
		t.Error("zero weights should fail")
	}
}

func TestPartitionElems(t *testing.T) {
	pt, _ := NewEqualPartition(10, 4)
	if pt.Elems(0) != 2*8 {
		t.Errorf("Elems=%d", pt.Elems(0))
	}
	if pt.GhostRowBytes() != 64 {
		t.Errorf("GhostRowBytes=%g", pt.GhostRowBytes())
	}
	if pt.P() != 4 {
		t.Errorf("P=%d", pt.P())
	}
}

func TestPartitionValidateCatchesCorruption(t *testing.T) {
	pt, _ := NewEqualPartition(10, 4)
	pt.Rows[0] = 0
	if err := pt.Validate(); err == nil {
		t.Error("zero-row strip should fail validation")
	}
	pt.Rows[0] = 5
	if err := pt.Validate(); err == nil {
		t.Error("over-covering rows should fail validation")
	}
}

func TestPartitionRender(t *testing.T) {
	pt, _ := NewEqualPartition(10, 2)
	out := pt.Render()
	if !strings.Contains(out, "P1") || !strings.Contains(out, "P2") {
		t.Errorf("render missing processors:\n%s", out)
	}
	if !strings.Contains(out, "=") {
		t.Error("render missing bars")
	}
}

// Property: for any valid inputs, strips cover the interior exactly, in
// order, with >= 1 row each.
func TestWeightedPartitionCoverageProperty(t *testing.T) {
	f := func(nRaw, pRaw uint8, w1, w2, w3 float64) bool {
		p := int(pRaw%3) + 1
		n := int(nRaw%60) + p + 3
		ws := []float64{abs1(w1) + 0.001, abs1(w2) + 0.001, abs1(w3) + 0.001}[:p]
		pt, err := NewWeightedPartition(n, ws)
		if err != nil {
			return false
		}
		if pt.Validate() != nil {
			return false
		}
		// Bounds tile [1, n-1).
		next := 1
		for i := 0; i < p; i++ {
			lo, hi := pt.Bounds(i)
			if lo != next || hi <= lo {
				return false
			}
			next = hi
		}
		return next == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func abs1(x float64) float64 {
	if x < 0 {
		x = -x
	}
	for x > 100 {
		x /= 100
	}
	if x != x { // NaN
		return 1
	}
	return x
}
