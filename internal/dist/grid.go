package dist

import (
	"sort"

	"prodpred/internal/stats"
)

// IntervalLevels are the central interval levels a distribution-valued
// prediction serves and the quantile calibrator keeps two-sided multipliers
// for, ascending. Callers must treat it as immutable.
var IntervalLevels = []float64{0.5, 0.8, 0.9, 0.95}

// GridLevels is the quantile grid every distribution-valued forecast and
// prediction is tabulated on: the ends (1∓L)/2 of each of IntervalLevels
// around the median, ascending, so a central interval reads straight off
// the grid and the prediction pipeline can propagate execution-time
// quantiles through mirrored availability quantiles. The levels are
// literals: (1-L)/2 rounds to a neighbour of 0.1, 0.05 and 0.025. Callers
// must treat it as immutable.
var GridLevels = gridLevels[:]

var gridLevels = [...]float64{0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.975}

const (
	// NumLevels is len(GridLevels) as a constant, the length of an array
	// that holds one grid.
	NumLevels = len(gridLevels)
	// MedianLevel indexes the median in GridLevels; the lower end of
	// IntervalLevels[i] is at MedianLevel-1-i and the upper at
	// MedianLevel+1+i.
	MedianLevel = NumLevels / 2
)

// NormalGrid tabulates the quantiles of N(mean, sigma²) on GridLevels; a
// sigma of 0 is the point value mean at every level.
func NormalGrid(mean, sigma float64) []float64 {
	grid := make([]float64, NumLevels)
	for i, p := range GridLevels {
		if sigma == 0 {
			grid[i] = mean
		} else {
			grid[i] = mean + sigma*stats.NormalQuantile(p)
		}
	}
	return grid
}

// Monotone enforces a nondecreasing quantile curve in place (running max):
// numeric noise in widened, rescaled or interpolated grids must never
// surface an inverted interval.
func Monotone(grid []float64) {
	for i := 1; i < len(grid); i++ {
		if grid[i] < grid[i-1] {
			grid[i] = grid[i-1]
		}
	}
}

// GridQuantile interpolates a quantile function tabulated on GridLevels at
// probability p, extrapolating flat beyond the grid ends.
func GridQuantile(grid []float64, p float64) float64 { return LocateLevel(p).Read(grid) }

// GridPos is where a probability falls on GridLevels: everything
// GridQuantile works out from p alone. A caller that reads many grids at
// one fixed p locates it once and Reads each grid; the result is
// GridQuantile's by construction.
type GridPos struct {
	lo   int     // the level read, or the lower end of the segment interpolated
	frac float64 // 0 on a level or beyond the ends; else in (0,1) along lo → lo+1
}

// LocateLevel finds p on GridLevels.
func LocateLevel(p float64) GridPos {
	ls := GridLevels
	if p <= ls[0] {
		return GridPos{lo: 0}
	}
	last := len(ls) - 1
	if p >= ls[last] {
		return GridPos{lo: last}
	}
	i := sort.SearchFloat64s(ls, p)
	if ls[i] == p {
		return GridPos{lo: i}
	}
	return GridPos{lo: i - 1, frac: (p - ls[i-1]) / (ls[i] - ls[i-1])}
}

// Read interpolates a quantile function tabulated on GridLevels at the
// located probability.
func (g GridPos) Read(grid []float64) float64 {
	if g.frac == 0 {
		return grid[g.lo]
	}
	return grid[g.lo] + g.frac*(grid[g.lo+1]-grid[g.lo])
}

// GridPIT inverts a quantile grid at x: the probability integral transform,
// linearly interpolated between grid points and clamped to the end levels
// outside the grid.
func GridPIT(grid []float64, x float64) float64 {
	if x <= grid[0] {
		return GridLevels[0]
	}
	for i := 1; i < len(grid); i++ {
		if x <= grid[i] {
			lo, hi := grid[i-1], grid[i]
			pl, ph := GridLevels[i-1], GridLevels[i]
			if hi <= lo {
				return pl
			}
			return pl + (ph-pl)*(x-lo)/(hi-lo)
		}
	}
	return GridLevels[len(grid)-1]
}
