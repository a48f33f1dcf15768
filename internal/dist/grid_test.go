package dist

import (
	"math"
	"sort"
	"testing"
)

// TestGridLevelsPinned pins the grid to the bit: its low ends are the
// literals, its high ends are (1+L)/2 of the interval levels, and the PIT of
// a value outside a grid is exactly the table's end level.
func TestGridLevelsPinned(t *testing.T) {
	want := []float64{0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.975}
	if len(GridLevels) != NumLevels || NumLevels != len(want) {
		t.Fatalf("grid has %d levels (NumLevels %d), want %d", len(GridLevels), NumLevels, len(want))
	}
	for i, w := range want {
		if math.Float64bits(GridLevels[i]) != math.Float64bits(w) {
			t.Fatalf("level %d is %v, want the literal %v", i, GridLevels[i], w)
		}
	}
	if GridLevels[MedianLevel] != 0.5 || 2*len(IntervalLevels)+1 != NumLevels {
		t.Fatalf("median index %d reads %v over %d interval levels", MedianLevel, GridLevels[MedianLevel], len(IntervalLevels))
	}
	for i, L := range IntervalLevels {
		if hi := GridLevels[MedianLevel+1+i]; math.Float64bits(hi) != math.Float64bits((1+L)/2) {
			t.Fatalf("level %v: high end %v, want (1+L)/2 = %v", L, hi, (1+L)/2)
		}
	}
	grid := NormalGrid(0, 1)
	if p := GridPIT(grid, -10); math.Float64bits(p) != math.Float64bits(0.025) {
		t.Fatalf("below-grid PIT %v, want exactly 0.025", p)
	}
	if p := GridPIT(grid, 10); math.Float64bits(p) != math.Float64bits(0.975) {
		t.Fatalf("above-grid PIT %v, want exactly 0.975", p)
	}
}

// TestGridPIT: the inverse reads the median, interpolates between levels and
// clamps outside the grid.
func TestGridPIT(t *testing.T) {
	off := []float64{0.25, 0.4, 0.45, 0.475}
	grid := make([]float64, NumLevels)
	for i, o := range off {
		grid[MedianLevel-1-i], grid[MedianLevel+1+i] = -o, o
	}
	if p := GridPIT(grid, 0); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("median PIT %g, want 0.5", p)
	}
	if p := GridPIT(grid, -10); p != GridLevels[0] {
		t.Fatalf("below-grid PIT %g, want clamp to %g", p, GridLevels[0])
	}
	if p := GridPIT(grid, 10); p != GridLevels[NumLevels-1] {
		t.Fatalf("above-grid PIT %g, want clamp to %g", p, GridLevels[NumLevels-1])
	}
	// Halfway between the median (0) and the 0.75 quantile (0.25).
	if p := GridPIT(grid, 0.125); math.Abs(p-0.625) > 1e-12 {
		t.Fatalf("interpolated PIT %g, want 0.625", p)
	}
}

func TestGridQuantileInterpolates(t *testing.T) {
	grid := make([]float64, NumLevels)
	for i, p := range GridLevels {
		grid[i] = 10 * p // identity-ish curve
	}
	for _, p := range []float64{0.025, 0.3, 0.5, 0.61, 0.975} {
		got := GridQuantile(grid, p)
		if math.Abs(got-10*p) > 1e-9 {
			t.Fatalf("GridQuantile(%g) = %g, want %g", p, got, 10*p)
		}
	}
	if got := GridQuantile(grid, 0.001); got != grid[0] {
		t.Fatalf("below-grid quantile %g, want clamp to %g", got, grid[0])
	}
	if got := GridQuantile(grid, 0.999); got != grid[len(grid)-1] {
		t.Fatalf("above-grid quantile %g, want clamp to %g", got, grid[len(grid)-1])
	}
}

// gridHash01 is a deterministic uniform in [0,1) keyed by an integer
// (splitmix64).
func gridHash01(k uint64) float64 {
	k += 0x9e3779b97f4a7c15
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	k ^= k >> 31
	return float64(k>>11) / (1 << 53)
}

// TestLocateLevelReadsAsGridQuantile: reading a grid at a located level is
// the interpolation GridQuantile did before the search and the read were
// split, kept here as it was — on levels, between them, beyond the ends, and
// over grids with ties, signed zeros and non-finite entries.
func TestLocateLevelReadsAsGridQuantile(t *testing.T) {
	reference := func(grid []float64, p float64) float64 {
		ls := GridLevels
		if p <= ls[0] {
			return grid[0]
		}
		last := len(ls) - 1
		if p >= ls[last] {
			return grid[last]
		}
		i := sort.SearchFloat64s(ls, p)
		if ls[i] == p {
			return grid[i]
		}
		frac := (p - ls[i-1]) / (ls[i] - ls[i-1])
		return grid[i-1] + frac*(grid[i]-grid[i-1])
	}
	ps := append([]float64{0, 1, -0.5, 1.5, 0.0249999, 0.9750001, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1)}, GridLevels...)
	for i := 0; i < 400; i++ {
		ps = append(ps, gridHash01(uint64(i)))
	}
	negZero := math.Copysign(0, -1)
	grids := [][]float64{
		{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		{0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3},
		{negZero, negZero, negZero, 0, 0, 0.25, 0.25, 1, 1},
		{math.Inf(-1), -1, -1, 0, 0.5, 0.5, 2, math.Inf(1), math.Inf(1)},
		{0.1, 0.2, math.NaN(), 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		{1e-320, 1e-310, 1e-300, 1e-200, 1, 1e200, 1e300, 1e308, math.MaxFloat64},
	}
	for g := 0; g < 200; g++ {
		grid := make([]float64, NumLevels)
		v := gridHash01(uint64(7*g)) - 0.3
		for i := range grid {
			if gridHash01(uint64(g*64+i)) > 0.25 { // a quarter of the steps are ties
				v += 0.3 * gridHash01(uint64(g*64+32+i))
			}
			grid[i] = v
		}
		grids = append(grids, grid)
	}
	for _, grid := range grids {
		for _, p := range ps {
			got, want := LocateLevel(p).Read(grid), reference(grid, p)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(GridQuantile(grid, p)) != math.Float64bits(want) {
				t.Fatalf("grid %v at p=%v: located read %v, GridQuantile %v, reference %v", grid, p, got, GridQuantile(grid, p), want)
			}
		}
	}
}
