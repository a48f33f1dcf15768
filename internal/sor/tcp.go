package sor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPBackend executes the strip-decomposed red-black SOR as a genuinely
// distributed program: one worker goroutine per strip, each owning only its
// strip (plus ghost rows) and exchanging boundary rows with its neighbours
// over real TCP connections (loopback). This is the closest stdlib-only
// analogue of the paper's implementation, which ran one process per
// workstation over ethernet.
//
// Numeric results are bit-identical to LocalBackend's: within a
// color phase every update reads only opposite-color values, so the
// distribution of rows cannot change the arithmetic.
type TCPBackend struct {
	part *Partition
}

// TCPResult reports a distributed run.
type TCPResult struct {
	Iterations int
	Residual   float64
	Elapsed    time.Duration
	// CommTime[p] is the wall-clock time worker p spent in ghost
	// exchanges; CompTime[p] the time in compute sweeps.
	CommTime []time.Duration
	CompTime []time.Duration
	// BytesSent[p] counts worker p's outgoing ghost bytes.
	BytesSent []int64
}

// NewTCPBackend validates the partition and returns a backend.
func NewTCPBackend(part *Partition) (*TCPBackend, error) {
	if part == nil {
		return nil, errors.New("sor: nil partition")
	}
	if err := part.Validate(); err != nil {
		return nil, err
	}
	return &TCPBackend{part: part}, nil
}

// tcpWorker is one distributed node: its slab holds rows [lo-1, hi] of the
// global grid (one ghost row on each side).
type tcpWorker struct {
	idx      int
	lo, hi   int // absolute interior row range [lo, hi)
	n        int
	h        float64
	slab     []float64 // (hi-lo+2) x n
	fslab    []float64 // source rows, same shape (nil for Laplace)
	up, down net.Conn  // nil at the edges
	comm     time.Duration
	comp     time.Duration
	sent     atomic.Int64 // updated from concurrent send goroutines
}

func (w *tcpWorker) rows() int { return w.hi - w.lo + 2 }

// slabIndex maps an absolute grid row to a slab row.
func (w *tcpWorker) slabIndex(absRow int) int { return absRow - (w.lo - 1) }

// sweep runs one color phase over the worker's interior rows through the
// same row update as Grid.SweepPhase.
func (w *tcpWorker) sweep(p Phase, omega float64) {
	n := w.n
	h2 := w.h * w.h
	for abs := w.lo; abs < w.hi; abs++ {
		row := w.slabIndex(abs) * n
		var frow []float64
		if w.fslab != nil {
			frow = w.fslab[row : row+n]
		}
		sweepRow(w.slab[row-n:row], w.slab[row:row+n], w.slab[row+n:row+2*n], frow, colStart(abs, p), h2, omega)
	}
}

// exchange swaps boundary rows with both neighbours. Sends run in their own
// goroutines so that blocking receives cannot deadlock against a
// full-buffer send on large rows.
func (w *tcpWorker) exchange() error {
	n := w.n
	var wg sync.WaitGroup
	sendErr := make(chan error, 2)
	send := func(conn net.Conn, absRow int) {
		defer wg.Done()
		r := w.slabIndex(absRow)
		if err := writeRow(conn, w.slab[r*n:(r+1)*n]); err != nil {
			sendErr <- err
			return
		}
		w.sent.Add(int64(8 * n))
	}
	if w.up != nil {
		wg.Add(1)
		go send(w.up, w.lo) // my first interior row becomes their bottom ghost
	}
	if w.down != nil {
		wg.Add(1)
		go send(w.down, w.hi-1)
	}
	if w.up != nil {
		r := w.slabIndex(w.lo - 1)
		if err := readRow(w.up, w.slab[r*n:(r+1)*n]); err != nil {
			return fmt.Errorf("worker %d: read from upper neighbour: %w", w.idx, err)
		}
	}
	if w.down != nil {
		r := w.slabIndex(w.hi)
		if err := readRow(w.down, w.slab[r*n:(r+1)*n]); err != nil {
			return fmt.Errorf("worker %d: read from lower neighbour: %w", w.idx, err)
		}
	}
	wg.Wait()
	select {
	case err := <-sendErr:
		return fmt.Errorf("worker %d: send: %w", w.idx, err)
	default:
	}
	return nil
}

func writeRow(conn net.Conn, row []float64) error {
	buf := make([]byte, 8*len(row))
	for i, v := range row {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	_, err := conn.Write(buf)
	return err
}

func readRow(conn net.Conn, row []float64) error {
	buf := make([]byte, 8*len(row))
	if _, err := io.ReadFull(conn, buf); err != nil {
		return err
	}
	for i := range row {
		row[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// connectWorkers builds the TCP pipeline: worker i listens, worker i+1
// dials it, giving each adjacent pair one loopback connection.
func connectWorkers(p int) (up, down []net.Conn, err error) {
	up = make([]net.Conn, p)   // up[i]: connection to worker i-1
	down = make([]net.Conn, p) // down[i]: connection to worker i+1
	listeners := make([]net.Listener, p)
	defer func() {
		for _, l := range listeners {
			if l != nil {
				l.Close()
			}
		}
		if err != nil {
			for _, c := range up {
				if c != nil {
					c.Close()
				}
			}
			for _, c := range down {
				if c != nil {
					c.Close()
				}
			}
		}
	}()
	for i := 0; i < p-1; i++ {
		l, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return nil, nil, lerr
		}
		listeners[i] = l
		accepted := make(chan net.Conn, 1)
		acceptErr := make(chan error, 1)
		go func(l net.Listener) {
			c, aerr := l.Accept()
			if aerr != nil {
				acceptErr <- aerr
				return
			}
			accepted <- c
		}(l)
		dial, derr := net.Dial("tcp", l.Addr().String())
		if derr != nil {
			return nil, nil, derr
		}
		select {
		case c := <-accepted:
			down[i] = c    // worker i talks down to i+1
			up[i+1] = dial // worker i+1 talks up to i
		case aerr := <-acceptErr:
			dial.Close()
			return nil, nil, aerr
		case <-time.After(5 * time.Second):
			dial.Close()
			return nil, nil, errors.New("sor: worker connection timed out")
		}
	}
	return up, down, nil
}

// Run executes `iterations` red-black iterations distributed over TCP and
// writes the converged values back into g.
func (b *TCPBackend) Run(g *Grid, omega float64, iterations int) (TCPResult, error) {
	if g == nil {
		return TCPResult{}, errors.New("sor: nil grid")
	}
	if g.N != b.part.N {
		return TCPResult{}, fmt.Errorf("sor: grid size %d does not match partition %d", g.N, b.part.N)
	}
	if omega <= 0 || omega >= 2 {
		return TCPResult{}, fmt.Errorf("sor: omega %g outside (0,2)", omega)
	}
	if iterations <= 0 {
		return TCPResult{}, errors.New("sor: iterations must be positive")
	}
	p := b.part.P()
	up, down, err := connectWorkers(p)
	if err != nil {
		return TCPResult{}, err
	}
	defer func() {
		for i := 0; i < p; i++ {
			if up[i] != nil {
				up[i].Close()
			}
			if down[i] != nil {
				down[i].Close()
			}
		}
	}()

	n := g.N
	workers := make([]*tcpWorker, p)
	for i := 0; i < p; i++ {
		lo, hi := b.part.Bounds(i)
		w := &tcpWorker{idx: i, lo: lo, hi: hi, n: n, h: g.H, up: up[i], down: down[i]}
		w.slab = make([]float64, w.rows()*n)
		copy(w.slab, g.U[(lo-1)*n:(hi+1)*n])
		if g.F != nil {
			w.fslab = make([]float64, w.rows()*n)
			copy(w.fslab, g.F[(lo-1)*n:(hi+1)*n])
		}
		workers[i] = w
	}

	start := time.Now()
	errs := make(chan error, p)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *tcpWorker) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				for _, phase := range []Phase{Red, Black} {
					t0 := time.Now()
					w.sweep(phase, omega)
					w.comp += time.Since(t0)
					t0 = time.Now()
					if err := w.exchange(); err != nil {
						errs <- err
						// Unblock neighbours waiting on this worker so the
						// error cascades instead of deadlocking the run.
						if w.up != nil {
							w.up.Close()
						}
						if w.down != nil {
							w.down.Close()
						}
						return
					}
					w.comm += time.Since(t0)
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return TCPResult{}, err
	default:
	}
	elapsed := time.Since(start)

	// Gather the interior rows back into the global grid.
	for _, w := range workers {
		copy(g.U[w.lo*n:w.hi*n], w.slab[w.slabIndex(w.lo)*n:w.slabIndex(w.hi)*n])
	}
	res := TCPResult{
		Iterations: iterations,
		Residual:   g.Residual(),
		Elapsed:    elapsed,
		CommTime:   make([]time.Duration, p),
		CompTime:   make([]time.Duration, p),
		BytesSent:  make([]int64, p),
	}
	for i, w := range workers {
		res.CommTime[i] = w.comm
		res.CompTime[i] = w.comp
		res.BytesSent[i] = w.sent.Load()
	}
	return res, nil
}
