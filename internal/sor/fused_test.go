package sor

import (
	"math"
	"testing"
)

// sweepPhaseGeneric is the original, unspecialized half-sweep: per-point
// source-term branch, no neighbor reuse. The specialized kernels must match
// it bit for bit.
func sweepPhaseGeneric(g *Grid, p Phase, rowLo, rowHi int, omega float64) int {
	n := g.N
	if rowLo < 1 {
		rowLo = 1
	}
	if rowHi > n-1 {
		rowHi = n - 1
	}
	h2 := g.H * g.H
	count := 0
	for i := rowLo; i < rowHi; i++ {
		jStart := 1 + (i+1+int(p))%2
		row := i * n
		for j := jStart; j < n-1; j += 2 {
			idx := row + j
			sum := g.U[idx-n] + g.U[idx+n] + g.U[idx-1] + g.U[idx+1]
			var f float64
			if g.F != nil {
				f = g.F[idx]
			}
			gs := 0.25 * (sum - h2*f)
			g.U[idx] += omega * (gs - g.U[idx])
			count++
		}
	}
	return count
}

// residualGeneric is the original full-interior residual with the per-point
// source-term branch, optionally restricted to one color.
func residualGeneric(g *Grid, only *Phase, rowLo, rowHi int) float64 {
	n := g.N
	if rowLo < 1 {
		rowLo = 1
	}
	if rowHi > n-1 {
		rowHi = n - 1
	}
	h2 := g.H * g.H
	worst := 0.0
	for i := rowLo; i < rowHi; i++ {
		row := i * n
		for j := 1; j < n-1; j++ {
			if only != nil && (i+j)%2 != int(*only) {
				continue
			}
			idx := row + j
			var f float64
			if g.F != nil {
				f = g.F[idx]
			}
			r := g.U[idx-n] + g.U[idx+n] + g.U[idx-1] + g.U[idx+1] - 4*g.U[idx] - h2*f
			if r < 0 {
				r = -r
			}
			if r > worst {
				worst = r
			}
		}
	}
	return worst
}

// kernelCase is one problem configuration for the bit-identity tables.
type kernelCase struct {
	name   string
	n      int
	omega  float64
	source func(x, y float64) float64 // nil => Laplace fast path
}

func kernelCases() []kernelCase {
	return []kernelCase{
		{name: "laplace-small", n: 9, omega: 1.0},
		{name: "laplace-odd", n: 33, omega: DefaultOmega},
		{name: "laplace-even", n: 34, omega: 1.9},
		{name: "poisson-small", n: 9, omega: 1.0,
			source: func(x, y float64) float64 { return 4 }},
		{name: "poisson-wavy", n: 33, omega: DefaultOmega,
			source: func(x, y float64) float64 { return math.Sin(5*x) * math.Cos(3*y) }},
		{name: "poisson-even", n: 34, omega: 1.2,
			source: func(x, y float64) float64 { return x*y - 1 }},
	}
}

// kernelGrid builds a deterministic non-trivial grid for a case.
func kernelGrid(t *testing.T, c kernelCase) *Grid {
	t.Helper()
	g, err := NewGrid(c.n)
	if err != nil {
		t.Fatal(err)
	}
	g.SetBoundary(func(x, y float64) float64 { return math.Sin(2*x) + y*y })
	for i := 1; i < c.n-1; i++ {
		for j := 1; j < c.n-1; j++ {
			g.Set(i, j, float64((i*37+j*11)%19)/7-1)
		}
	}
	if c.source != nil {
		g.SetSource(c.source)
	}
	return g
}

func sameU(t *testing.T, name string, want, got *Grid) {
	t.Helper()
	for i := range want.U {
		if want.U[i] != got.U[i] {
			t.Fatalf("%s: U differs at %d: %g vs %g", name, i, want.U[i], got.U[i])
		}
	}
}

func TestSpecializedSweepMatchesGeneric(t *testing.T) {
	for _, c := range kernelCases() {
		t.Run(c.name, func(t *testing.T) {
			ref := kernelGrid(t, c)
			fast := kernelGrid(t, c)
			for it := 0; it < 5; it++ {
				for _, p := range []Phase{Red, Black} {
					wantN := sweepPhaseGeneric(ref, p, 1, c.n-1, c.omega)
					gotN := fast.SweepPhase(p, 1, c.n-1, c.omega)
					if wantN != gotN {
						t.Fatalf("iter %d %v: count %d vs generic %d", it, p, gotN, wantN)
					}
				}
				sameU(t, c.name, ref, fast)
				wantR := residualGeneric(ref, nil, 1, c.n-1)
				if gotR := fast.Residual(); gotR != wantR {
					t.Fatalf("iter %d: Residual %g vs generic %g", it, gotR, wantR)
				}
			}
		})
	}
}

func TestSweepPhaseResidualMatchesGeneric(t *testing.T) {
	for _, c := range kernelCases() {
		t.Run(c.name, func(t *testing.T) {
			ref := kernelGrid(t, c)
			fused := kernelGrid(t, c)
			for it := 0; it < 5; it++ {
				sweepPhaseGeneric(ref, Red, 1, c.n-1, c.omega)
				fused.SweepPhase(Red, 1, c.n-1, c.omega)

				wantN := sweepPhaseGeneric(ref, Black, 1, c.n-1, c.omega)
				gotN, blackR := fused.SweepPhaseResidual(Black, 1, c.n-1, c.omega)
				if gotN != wantN {
					t.Fatalf("iter %d: fused count %d vs generic %d", it, gotN, wantN)
				}
				sameU(t, c.name, ref, fused)

				// The fused black residual must equal a separate black-only
				// pass, and combined with the red half must reproduce the
				// full generic residual exactly.
				black := Black
				if want := residualGeneric(ref, &black, 1, c.n-1); blackR != want {
					t.Fatalf("iter %d: fused black residual %g vs generic %g", it, blackR, want)
				}
				red := Red
				redR := fused.ResidualPhase(Red, 1, c.n-1)
				if want := residualGeneric(ref, &red, 1, c.n-1); redR != want {
					t.Fatalf("iter %d: red ResidualPhase %g vs generic %g", it, redR, want)
				}
				full := redR
				if blackR > full {
					full = blackR
				}
				if want := residualGeneric(ref, nil, 1, c.n-1); full != want {
					t.Fatalf("iter %d: combined residual %g vs generic %g", it, full, want)
				}
			}
		})
	}
}

func TestResidualPhasePartialRows(t *testing.T) {
	for _, c := range kernelCases() {
		t.Run(c.name, func(t *testing.T) {
			g := kernelGrid(t, c)
			g.SweepPhase(Red, 1, c.n-1, c.omega)
			for _, p := range []Phase{Red, Black} {
				p := p
				for _, rows := range [][2]int{{1, c.n - 1}, {2, 5}, {c.n / 2, c.n - 1}, {3, 3}} {
					want := residualGeneric(g, &p, rows[0], rows[1])
					if got := g.ResidualPhase(p, rows[0], rows[1]); got != want {
						t.Fatalf("%v rows %v: %g vs generic %g", p, rows, got, want)
					}
				}
			}
		})
	}
}

func TestLocalBackendReuse(t *testing.T) {
	n := 33
	pt, _ := NewEqualPartition(n, 3)
	b, err := NewLocalBackend(pt)
	if err != nil {
		t.Fatal(err)
	}
	// Two runs on the same backend must both match the sequential kernel.
	for run := 0; run < 2; run++ {
		seq := laplaceProblem(t, n)
		for it := 0; it < 20; it++ {
			seq.SweepPhase(Red, 1, n-1, DefaultOmega)
			seq.SweepPhase(Black, 1, n-1, DefaultOmega)
		}
		par := laplaceProblem(t, n)
		if _, err := b.Run(par, DefaultOmega, 20, 0); err != nil {
			t.Fatal(err)
		}
		sameU(t, "reuse-run", seq, par)
	}
}

func TestLocalBackendResidualMatchesSequential(t *testing.T) {
	// The backend's fused residual decomposition (black fused + interior red +
	// edge-row red) must agree exactly with the sequential full pass, for
	// strip counts that produce 1-row and multi-row strips.
	for _, c := range []struct{ n, strips, iters int }{
		{17, 1, 9}, {17, 2, 9}, {17, 4, 9}, {17, 7, 9}, {34, 4, 40},
	} {
		n := c.n
		seq := laplaceProblem(t, n)
		for it := 0; it < c.iters; it++ {
			seq.SweepPhase(Red, 1, n-1, DefaultOmega)
			seq.SweepPhase(Black, 1, n-1, DefaultOmega)
		}
		want := seq.Residual()

		par := laplaceProblem(t, n)
		pt, err := NewEqualPartition(n, c.strips)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewLocalBackend(pt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run(par, DefaultOmega, c.iters, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Residual != want {
			t.Errorf("n=%d strips=%d: residual %g vs sequential %g", n, c.strips, res.Residual, want)
		}
		sameU(t, "resid-run", seq, par)
	}
}
