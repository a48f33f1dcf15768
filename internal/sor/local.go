package sor

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// LocalResult reports a LocalBackend run.
type LocalResult struct {
	Iterations int
	Residual   float64
	Elapsed    time.Duration
}

// LocalBackend executes the strip-decomposed red-black SOR with one
// goroutine per strip on the host machine — a real shared-memory parallel
// SOR. Red and black half-sweeps are separated by barriers; within a
// half-sweep the strips are independent because red points only read black
// neighbors and vice versa, so strips may touch adjacent ghost rows without
// racing. Each barrier interval starts one goroutine per strip and waits for
// all of them, so a backend holds no goroutines between runs and needs no
// closing; concurrent runs on distinct grids are safe.
type LocalBackend struct {
	part *Partition
}

// NewLocalBackend validates the partition and returns a backend.
func NewLocalBackend(part *Partition) (*LocalBackend, error) {
	if part == nil {
		return nil, errors.New("sor: nil partition")
	}
	if err := part.Validate(); err != nil {
		return nil, err
	}
	return &LocalBackend{part: part}, nil
}

// barrier runs strip over every strip's rows [lo, hi), one goroutine each,
// waits for all of them and returns the largest value they report. out
// holds one slot per strip.
func (b *LocalBackend) barrier(out []float64, strip func(lo, hi int) float64) float64 {
	var wg sync.WaitGroup
	wg.Add(len(out))
	for w := range out {
		lo, hi := b.part.Bounds(w)
		go func() {
			defer wg.Done()
			out[w] = strip(lo, hi)
		}()
	}
	wg.Wait()
	worst := 0.0
	for _, r := range out {
		if r > worst {
			worst = r
		}
	}
	return worst
}

// Run performs iterations full red-black sweeps on g (or stops early when
// the residual drops below tol; pass tol <= 0 to run all iterations).
func (b *LocalBackend) Run(g *Grid, omega float64, iterations int, tol float64) (LocalResult, error) {
	if g == nil {
		return LocalResult{}, errors.New("sor: nil grid")
	}
	if g.N != b.part.N {
		return LocalResult{}, fmt.Errorf("sor: grid size %d does not match partition %d", g.N, b.part.N)
	}
	if omega <= 0 || omega >= 2 {
		return LocalResult{}, fmt.Errorf("sor: omega %g outside (0,2)", omega)
	}
	if iterations <= 0 {
		return LocalResult{}, errors.New("sor: iterations must be positive")
	}
	red := func(lo, hi int) float64 { g.SweepPhase(Red, lo, hi, omega); return 0 }
	black := func(lo, hi int) float64 { g.SweepPhase(Black, lo, hi, omega); return 0 }
	// blackResid is the black half-sweep fused with its own residual and
	// the red residual of the strip's interior rows [lo+1, hi-1): by then
	// red is final everywhere, and those rows' neighbors all lie inside
	// the strip, so no barrier is needed before reading them.
	blackResid := func(lo, hi int) float64 {
		_, r := g.SweepPhaseResidual(Black, lo, hi, omega)
		if rr := g.ResidualPhase(Red, lo+1, hi-1); rr > r {
			r = rr
		}
		return r
	}
	// redEdges is the red residual of the strip's first and last rows,
	// whose neighbors live in adjacent strips and so must wait for the
	// post-sweep barrier.
	redEdges := func(lo, hi int) float64 {
		r := g.ResidualPhase(Red, lo, lo+1)
		if hi-1 > lo {
			if rr := g.ResidualPhase(Red, hi-1, hi); rr > r {
				r = rr
			}
		}
		return r
	}
	out := make([]float64, b.part.P())
	start := time.Now()
	res := LocalResult{}
	for it := 1; it <= iterations; it++ {
		b.barrier(out, red)
		res.Iterations = it
		if tol <= 0 && it < iterations {
			// No residual wanted this iteration: plain black half-sweep.
			b.barrier(out, black)
			continue
		}
		// The max over the fused black pass and the red edge rows is
		// exactly what a full Residual pass would report.
		r := b.barrier(out, blackResid)
		if rr := b.barrier(out, redEdges); rr > r {
			r = rr
		}
		res.Residual = r
		if tol > 0 && r < tol {
			break
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// BenchmarkElement measures the host's time per element update in seconds
// by timing full sweeps over an n x n grid — the BM(Elt) model parameter of
// §2.2.1's benchmark-based computation component.
func BenchmarkElement(n, sweeps int) (float64, error) {
	g, err := NewGrid(n)
	if err != nil {
		return 0, err
	}
	if sweeps <= 0 {
		return 0, errors.New("sor: sweeps must be positive")
	}
	g.SetBoundary(func(x, y float64) float64 { return x + y })
	// One untimed warm-up sweep: a freshly allocated grid pays first-touch
	// page faults on every row, which would otherwise be billed to the
	// first timed sweep and skew BM(Elt) upward.
	g.SweepPhase(Red, 1, n-1, DefaultOmega)
	g.SweepPhase(Black, 1, n-1, DefaultOmega)
	start := time.Now()
	elems := 0
	for s := 0; s < sweeps; s++ {
		elems += g.SweepPhase(Red, 1, n-1, DefaultOmega)
		elems += g.SweepPhase(Black, 1, n-1, DefaultOmega)
	}
	el := time.Since(start).Seconds()
	return el / float64(elems), nil
}
