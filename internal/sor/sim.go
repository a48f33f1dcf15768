package sor

import (
	"errors"
	"fmt"

	"prodpred/internal/simenv"
)

// PhaseTimes accumulates the virtual time attributed to each structural-
// model component across a run: the Max over processors of each phase,
// summed over iterations — exactly the decomposition of the paper's SOR
// structural model.
type PhaseTimes struct {
	RedComp, RedComm, BlackComp, BlackComm float64
}

// Total returns the sum of the four components.
func (pt PhaseTimes) Total() float64 {
	return pt.RedComp + pt.RedComm + pt.BlackComp + pt.BlackComm
}

// SimResult reports the timing of a simulated distributed run.
type SimResult struct {
	Iterations int
	// ExecTime is the virtual wall time from start to the last processor's
	// completion.
	ExecTime float64
	// Phases is the per-component breakdown (max over processors per
	// iteration, summed).
	Phases PhaseTimes
	// IterationEnd[i] is the virtual time at which iteration i+1 completed
	// on the last processor, relative to start.
	IterationEnd []float64
	// MaxSkew is the largest spread, over iterations, between the first
	// and last processor to finish an iteration (seconds). The paper's
	// Figure 7 bounds accumulated skew by P iterations' worth of work.
	MaxSkew float64
}

// SimBackend times the strip-decomposed SOR on a simulated production
// platform. It touches no grid: the time of a run depends only on the
// strips' sizes, the machines they run on and the environment's load, so
// it walks the phases and charges each against the environment's machines
// and network:
//
//	red compute -> ghost exchange -> black compute -> ghost exchange
//
// with loose synchronization: a processor proceeds once its own sends are
// drained and the ghost rows it needs have arrived, so delays propagate to
// neighbors only (the skew of Figure 7) rather than through a global
// barrier. LocalBackend and TCPBackend compute the numbers.
type SimBackend struct {
	env      *simenv.Env
	part     *Partition
	machines []int // strip index -> machine index
}

// NewSimBackend binds a partition to machines of the environment's
// platform. machines[p] is the platform machine executing strip p.
func NewSimBackend(env *simenv.Env, part *Partition, machines []int) (*SimBackend, error) {
	if env == nil {
		return nil, errors.New("sor: nil environment")
	}
	if part == nil {
		return nil, errors.New("sor: nil partition")
	}
	if err := part.Validate(); err != nil {
		return nil, err
	}
	if len(machines) != part.P() {
		return nil, fmt.Errorf("sor: %d machines for %d strips", len(machines), part.P())
	}
	for _, m := range machines {
		if m < 0 || m >= env.Platform().Size() {
			return nil, fmt.Errorf("sor: machine index %d out of range", m)
		}
	}
	return &SimBackend{env: env, part: part, machines: append([]int(nil), machines...)}, nil
}

// Run walks `iterations` red-black iterations from virtual time start and
// reports when each phase and iteration ends.
func (b *SimBackend) Run(iterations int, start float64) (SimResult, error) {
	if iterations <= 0 {
		return SimResult{}, errors.New("sor: iterations must be positive")
	}

	p := b.part.P()
	t := make([]float64, p) // per-processor virtual clocks
	for i := range t {
		t[i] = start
	}
	res := SimResult{Iterations: iterations}
	ghost := b.part.GhostRowBytes()
	compEnd := make([]float64, p)

	for it := 0; it < iterations; it++ {
		for _, phase := range [...]Phase{Red, Black} {
			// Compute phase: roughly half the strip's points per color.
			var maxComp float64
			for w := 0; w < p; w++ {
				elems := float64(b.part.Elems(w)) / 2
				d, err := b.env.WorkDuration(b.machines[w], elems, t[w])
				if err != nil {
					return SimResult{}, err
				}
				compEnd[w] = t[w] + d
				if d > maxComp {
					maxComp = d
				}
			}

			// Communication phase: each strip exchanges one ghost row with
			// each neighbor. NICs on the shared 10 Mbit ethernet are
			// half-duplex, so a host's send and receive endpoints
			// serialize — the same additive SendLR + ReceLR accounting the
			// structural model uses. A strip may begin its exchange only
			// once it and the neighbors it exchanges with have finished
			// computing; that neighbor-only dependence is the loose
			// synchronization whose delays accumulate as the skew of
			// Figure 7.
			var maxComm float64
			for w := 0; w < p; w++ {
				start := compEnd[w]
				if w > 0 && compEnd[w-1] > start && b.machines[w-1] != b.machines[w] {
					start = compEnd[w-1]
				}
				if w < p-1 && compEnd[w+1] > start && b.machines[w+1] != b.machines[w] {
					start = compEnd[w+1]
				}
				cursor := start
				// Send to and receive from each neighbor, serially.
				for _, nb := range [...]int{w - 1, w + 1} {
					if nb < 0 || nb >= p {
						continue
					}
					for k := 0; k < 2; k++ { // one send + one receive
						d, err := b.transfer(w, nb, ghost, cursor)
						if err != nil {
							return SimResult{}, err
						}
						cursor += d
					}
				}
				if c := cursor - compEnd[w]; c > maxComm {
					maxComm = c
				}
				t[w] = cursor
			}
			if phase == Red {
				res.Phases.RedComp += maxComp
				res.Phases.RedComm += maxComm
			} else {
				res.Phases.BlackComp += maxComp
				res.Phases.BlackComm += maxComm
			}
		}
		first, last := t[0], t[0]
		for _, tw := range t[1:] {
			if tw < first {
				first = tw
			}
			if tw > last {
				last = tw
			}
		}
		if skew := last - first; skew > res.MaxSkew {
			res.MaxSkew = skew
		}
		res.IterationEnd = append(res.IterationEnd, last-start)
	}
	res.ExecTime = res.IterationEnd[len(res.IterationEnd)-1]
	return res, nil
}

// transfer wraps Env.TransferDuration, handling strips that share one
// machine: a ghost exchange within the same machine is a memory copy
// charged at zero network cost.
func (b *SimBackend) transfer(fromStrip, toStrip int, bytes, at float64) (float64, error) {
	mf, mt := b.machines[fromStrip], b.machines[toStrip]
	if mf == mt {
		return 0, nil
	}
	return b.env.TransferDuration(mf, mt, bytes, at)
}

// IdentityMapping returns the strip->machine mapping [0, 1, ..., p-1].
func IdentityMapping(p int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = i
	}
	return out
}
