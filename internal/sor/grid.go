// Package sor implements the paper's driving application: distributed
// Red-Black Successive Over-Relaxation on an NxN grid with a strip
// decomposition (Figure 6).
//
// The numeric kernel is real — it solves the Poisson problem
// ∇²u = f with Dirichlet boundaries and is verified against analytic
// solutions — and two execution backends compute with it:
//
//   - LocalBackend runs the strips in parallel goroutines on the host
//     (a genuine shared-memory parallel SOR), and
//   - TCPBackend runs each strip in its own worker behind a TCP
//     connection, exchanging ghost rows over the wire.
//
// Both produce bit-identical numeric results. A third backend only times:
// SimBackend walks the same strips' red/black compute phases and ghost-row
// exchanges against a simulated production platform (internal/simenv),
// charging virtual time for each, including the loose-synchronization skew
// of Figure 7. It needs no grid, since a run's time does not depend on the
// values it computes.
package sor

import (
	"errors"
	"fmt"
	"math"
)

// DefaultOmega is the over-relaxation factor used when none is given.
// The optimal omega for the model problem approaches 2/(1+sin(pi/N)); 1.5
// is a robust middle ground across the paper's problem sizes.
const DefaultOmega = 1.5

// OptimalOmega returns the asymptotically optimal over-relaxation factor
// for the model Poisson problem on an n x n grid,
// 2 / (1 + sin(pi/(n-1))), which reduces the iteration count from O(N^2)
// (Gauss-Seidel) to O(N).
func OptimalOmega(n int) float64 {
	if n < 3 {
		return DefaultOmega
	}
	return 2 / (1 + math.Sin(math.Pi/float64(n-1)))
}

// Grid is an NxN solution grid with Dirichlet boundary values held in the
// outermost ring. Interior points are (1..N-2)x(1..N-2).
type Grid struct {
	N int
	U []float64 // row-major NxN
	F []float64 // source term, row-major NxN (nil means Laplace: f == 0)
	H float64   // mesh spacing
}

// NewGrid allocates an N x N grid (N >= 3) with zero values and unit
// domain, i.e. h = 1/(N-1).
func NewGrid(n int) (*Grid, error) {
	if n < 3 {
		return nil, fmt.Errorf("sor: grid size %d too small (need >= 3)", n)
	}
	return &Grid{
		N: n,
		U: make([]float64, n*n),
		H: 1 / float64(n-1),
	}, nil
}

// At returns u(i, j).
func (g *Grid) At(i, j int) float64 { return g.U[i*g.N+j] }

// Set assigns u(i, j).
func (g *Grid) Set(i, j int, v float64) { g.U[i*g.N+j] = v }

// SetBoundary fills the outer ring with fn(x, y), where x = j*h, y = i*h.
func (g *Grid) SetBoundary(fn func(x, y float64) float64) {
	n := g.N
	for k := 0; k < n; k++ {
		g.Set(0, k, fn(float64(k)*g.H, 0))
		g.Set(n-1, k, fn(float64(k)*g.H, float64(n-1)*g.H))
		g.Set(k, 0, fn(0, float64(k)*g.H))
		g.Set(k, n-1, fn(float64(n-1)*g.H, float64(k)*g.H))
	}
}

// SetSource fills the source term with fn(x, y).
func (g *Grid) SetSource(fn func(x, y float64) float64) {
	if g.F == nil {
		g.F = make([]float64, g.N*g.N)
	}
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			g.F[i*g.N+j] = fn(float64(j)*g.H, float64(i)*g.H)
		}
	}
}

// Clone returns a deep copy of the grid.
func (g *Grid) Clone() *Grid {
	out := &Grid{N: g.N, H: g.H, U: append([]float64(nil), g.U...)}
	if g.F != nil {
		out.F = append([]float64(nil), g.F...)
	}
	return out
}

// Phase selects the red or black half of a red-black sweep.
type Phase int

// Red updates points with even (i+j); Black updates odd (i+j).
const (
	Red Phase = iota
	Black
)

func (p Phase) String() string {
	if p == Red {
		return "red"
	}
	return "black"
}

// clampRows restricts [rowLo, rowHi) to the interior rows [1, N-1).
func (g *Grid) clampRows(rowLo, rowHi int) (int, int) {
	if rowLo < 1 {
		rowLo = 1
	}
	if rowHi > g.N-1 {
		rowHi = g.N - 1
	}
	return rowLo, rowHi
}

// colStart returns the first interior column of color p in row i.
func colStart(i int, p Phase) int {
	return 1 + (i+1+int(p))%2
}

// SweepPhase performs one SOR half-sweep of the given color over rows
// [rowLo, rowHi) of the interior, with over-relaxation factor omega.
// It returns the number of points updated.
//
// Red-black ordering makes the two half-sweeps independent within
// themselves: every red point depends only on black neighbors and vice
// versa, which is what allows the strip-parallel execution.
func (g *Grid) SweepPhase(p Phase, rowLo, rowHi int, omega float64) int {
	rowLo, rowHi = g.clampRows(rowLo, rowHi)
	n := g.N
	u := g.U
	h2 := g.H * g.H
	count := 0
	for i := rowLo; i < rowHi; i++ {
		base := i * n
		var frow []float64
		if g.F != nil {
			frow = g.F[base : base+n]
		}
		count += sweepRow(u[base-n:base], u[base:base+n], u[base+n:base+2*n], frow, colStart(i, p), h2, omega)
	}
	return count
}

// sweepRow applies the SOR point update to here[jStart], here[jStart+2], …
// up to the last interior column, reading the rows above and below and the
// row's source term frow (nil means Laplace); it returns the number of
// points updated. It is the one point update of both the shared-memory
// sweep (Grid.SweepPhase) and a TCP worker's slab sweep, which is why the
// two backends compute bit-identical grids.
//
// The Laplace and Poisson source terms are dispatched once per row rather
// than per point, and the row is walked so that the neighbor of one update
// is reused as an operand of the next.
func sweepRow(above, here, below, frow []float64, jStart int, h2, omega float64) int {
	n := len(here)
	above, below = above[:n], below[:n]
	left := here[jStart-1]
	if frow == nil {
		for j := jStart; j < n-1; j += 2 {
			right := here[j+1]
			gs := 0.25 * (above[j] + below[j] + left + right)
			here[j] += omega * (gs - here[j])
			left = right
		}
	} else {
		frow = frow[:n]
		for j := jStart; j < n-1; j += 2 {
			right := here[j+1]
			sum := above[j] + below[j] + left + right
			gs := 0.25 * (sum - h2*frow[j])
			here[j] += omega * (gs - here[j])
			left = right
		}
	}
	return (n - jStart) / 2
}

// SweepPhaseResidual is SweepPhase fused with the residual of the points it
// updates: it performs the half-sweep and additionally returns the max-norm
// residual over the updated points, evaluated with their post-update values.
//
// When called for the second half-sweep of an iteration (the Black phase in
// the Red-then-Black order used by Solve and the backends), the neighbors
// of every updated point are already final for the iteration, so the
// returned residual is bit-identical to what a separate Residual pass would
// report for those points — combining it with ResidualPhase of the opposite
// color reproduces Residual() exactly while touching the grid one fewer
// time per iteration.
func (g *Grid) SweepPhaseResidual(p Phase, rowLo, rowHi int, omega float64) (int, float64) {
	rowLo, rowHi = g.clampRows(rowLo, rowHi)
	n := g.N
	u := g.U
	h2 := g.H * g.H
	count := 0
	worst := 0.0
	for i := rowLo; i < rowHi; i++ {
		base := i * n
		above := u[base-n : base]
		here := u[base : base+n]
		below := u[base+n : base+2*n]
		jStart := colStart(i, p)
		left := here[jStart-1]
		if g.F == nil {
			for j := jStart; j < n-1; j += 2 {
				right := here[j+1]
				sum := above[j] + below[j] + left + right
				gs := 0.25 * sum
				here[j] += omega * (gs - here[j])
				r := sum - 4*here[j]
				if r < 0 {
					r = -r
				}
				if r > worst {
					worst = r
				}
				left = right
			}
		} else {
			frow := g.F[base : base+n]
			for j := jStart; j < n-1; j += 2 {
				right := here[j+1]
				sum := above[j] + below[j] + left + right
				gs := 0.25 * (sum - h2*frow[j])
				here[j] += omega * (gs - here[j])
				r := sum - 4*here[j] - h2*frow[j]
				if r < 0 {
					r = -r
				}
				if r > worst {
					worst = r
				}
				left = right
			}
		}
		count += (n - jStart) / 2
	}
	return count, worst
}

// ResidualPhase returns the max-norm residual over the points of color p in
// rows [rowLo, rowHi) of the interior.
func (g *Grid) ResidualPhase(p Phase, rowLo, rowHi int) float64 {
	rowLo, rowHi = g.clampRows(rowLo, rowHi)
	n := g.N
	u := g.U
	h2 := g.H * g.H
	worst := 0.0
	for i := rowLo; i < rowHi; i++ {
		base := i * n
		above := u[base-n : base]
		here := u[base : base+n]
		below := u[base+n : base+2*n]
		jStart := colStart(i, p)
		left := here[jStart-1]
		if g.F == nil {
			for j := jStart; j < n-1; j += 2 {
				right := here[j+1]
				r := above[j] + below[j] + left + right - 4*here[j]
				if r < 0 {
					r = -r
				}
				if r > worst {
					worst = r
				}
				left = right
			}
		} else {
			frow := g.F[base : base+n]
			for j := jStart; j < n-1; j += 2 {
				right := here[j+1]
				r := above[j] + below[j] + left + right - 4*here[j] - h2*frow[j]
				if r < 0 {
					r = -r
				}
				if r > worst {
					worst = r
				}
				left = right
			}
		}
	}
	return worst
}

// Residual returns the max-norm of the discrete residual
// |u[i-1,j]+u[i+1,j]+u[i,j-1]+u[i,j+1]-4u[i,j]-h^2 f| over the interior.
func (g *Grid) Residual() float64 {
	n := g.N
	u := g.U
	h2 := g.H * g.H
	worst := 0.0
	for i := 1; i < n-1; i++ {
		base := i * n
		above := u[base-n : base]
		here := u[base : base+n]
		below := u[base+n : base+2*n]
		left, mid := here[0], here[1]
		if g.F == nil {
			for j := 1; j < n-1; j++ {
				right := here[j+1]
				r := above[j] + below[j] + left + right - 4*mid
				if r < 0 {
					r = -r
				}
				if r > worst {
					worst = r
				}
				left, mid = mid, right
			}
		} else {
			frow := g.F[base : base+n]
			for j := 1; j < n-1; j++ {
				right := here[j+1]
				r := above[j] + below[j] + left + right - 4*mid - h2*frow[j]
				if r < 0 {
					r = -r
				}
				if r > worst {
					worst = r
				}
				left, mid = mid, right
			}
		}
	}
	return worst
}

// MaxErrorAgainst returns the max-norm difference between the grid and an
// analytic solution fn(x, y) over the interior.
func (g *Grid) MaxErrorAgainst(fn func(x, y float64) float64) float64 {
	worst := 0.0
	for i := 1; i < g.N-1; i++ {
		for j := 1; j < g.N-1; j++ {
			d := math.Abs(g.At(i, j) - fn(float64(j)*g.H, float64(i)*g.H))
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// InteriorPoints returns the number of interior grid points.
func (g *Grid) InteriorPoints() int {
	m := g.N - 2
	return m * m
}

// Solve runs full red-black SOR iterations on a single processor until the
// residual drops below tol or maxIters is reached. It returns the number of
// iterations performed.
func (g *Grid) Solve(omega, tol float64, maxIters int) (int, error) {
	if omega <= 0 || omega >= 2 {
		return 0, fmt.Errorf("sor: omega %g outside (0,2)", omega)
	}
	if maxIters <= 0 {
		return 0, errors.New("sor: maxIters must be positive")
	}
	for it := 1; it <= maxIters; it++ {
		g.SweepPhase(Red, 1, g.N-1, omega)
		// The black half-sweep computes its own residual in-place; only the
		// red half still needs a read pass, so each iteration touches the
		// grid three times instead of four.
		_, r := g.SweepPhaseResidual(Black, 1, g.N-1, omega)
		if rr := g.ResidualPhase(Red, 1, g.N-1); rr > r {
			r = rr
		}
		if r < tol {
			return it, nil
		}
	}
	return maxIters, nil
}
