package sor

import (
	"errors"
	"fmt"
	"strings"
)

// Partition is a strip decomposition of the interior rows of an NxN grid
// across P processors: Rows[p] is the number of interior rows owned by
// processor p, in top-to-bottom order (Figure 6).
type Partition struct {
	N    int
	Rows []int
}

// NewEqualPartition splits the interior rows of an NxN grid as evenly as
// possible across p processors. Every processor receives at least one row.
func NewEqualPartition(n, p int) (*Partition, error) {
	weights := make([]float64, p)
	for i := range weights {
		weights[i] = 1
	}
	return NewWeightedPartition(n, weights)
}

// NewWeightedPartition splits the interior rows proportionally to the given
// non-negative weights (e.g. predicted machine capacities — "to balance
// load in a distributed setting, we may assign more work to processors with
// greater capacity", footnote 2). Every processor receives at least one
// row, so the interior must have at least len(weights) rows.
func NewWeightedPartition(n int, weights []float64) (*Partition, error) {
	p := len(weights)
	if p == 0 {
		return nil, errors.New("sor: no processors")
	}
	if n < 3 {
		return nil, fmt.Errorf("sor: grid size %d too small", n)
	}
	interior := n - 2
	if interior < p {
		return nil, fmt.Errorf("sor: %d interior rows cannot cover %d processors", interior, p)
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("sor: negative weight %g for processor %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return nil, errors.New("sor: weights sum to zero")
	}
	rows := make([]int, p)
	assigned := 0
	// Largest-remainder apportionment with a 1-row floor.
	fractions := make([]float64, p)
	for i, w := range weights {
		exact := w / total * float64(interior)
		rows[i] = int(exact)
		if rows[i] < 1 {
			rows[i] = 1
		}
		fractions[i] = exact - float64(int(exact))
		assigned += rows[i]
	}
	for assigned > interior {
		// Floors overshot: take rows back from the largest allocations.
		big := 0
		for i := range rows {
			if rows[i] > rows[big] {
				big = i
			}
		}
		if rows[big] <= 1 {
			return nil, errors.New("sor: cannot satisfy 1-row floors")
		}
		rows[big]--
		assigned--
	}
	for assigned < interior {
		// Distribute remainders to the largest fractional parts.
		best := -1
		for i := range fractions {
			if best == -1 || fractions[i] > fractions[best] {
				best = i
			}
		}
		rows[best]++
		fractions[best] = -1
		assigned++
	}
	return &Partition{N: n, Rows: rows}, nil
}

// P returns the number of processors.
func (pt *Partition) P() int { return len(pt.Rows) }

// Bounds returns the half-open interior row range [lo, hi) owned by
// processor p (rows are absolute grid indices, so lo >= 1).
func (pt *Partition) Bounds(p int) (lo, hi int) {
	lo = 1
	for i := 0; i < p; i++ {
		lo += pt.Rows[i]
	}
	return lo, lo + pt.Rows[p]
}

// Elems returns the number of interior points owned by processor p.
func (pt *Partition) Elems(p int) int {
	return pt.Rows[p] * (pt.N - 2)
}

// GhostRowBytes returns the size in bytes of one exchanged ghost row
// (N-2 interior float64 values).
func (pt *Partition) GhostRowBytes() float64 {
	return float64(pt.N-2) * 8
}

// Validate checks internal consistency (rows positive, covering the
// interior exactly).
func (pt *Partition) Validate() error {
	sum := 0
	for p, r := range pt.Rows {
		if r < 1 {
			return fmt.Errorf("sor: processor %d owns %d rows", p, r)
		}
		sum += r
	}
	if sum != pt.N-2 {
		return fmt.Errorf("sor: rows sum to %d, interior is %d", sum, pt.N-2)
	}
	return nil
}

// Render draws the strip decomposition as ASCII (one line per processor),
// the textual analogue of the paper's Figure 6.
func (pt *Partition) Render() string {
	var b strings.Builder
	for p, r := range pt.Rows {
		lo, hi := pt.Bounds(p)
		fmt.Fprintf(&b, "P%-2d rows [%4d,%4d) %s (%d rows)\n", p+1, lo, hi,
			strings.Repeat("=", 1+r*40/(pt.N-2)), r)
	}
	return b.String()
}
