package structural

import (
	"errors"
	"fmt"
	"math"

	"prodpred/internal/stochastic"
)

// SORPoint is an SORConfig's model compiled for evaluation without the
// tree: no parameter map, no interface dispatch, no allocation per
// evaluation. The expression tree stays the definition of the model and the
// oracle both evaluations are held to.
//
// PhaseValue evaluates one phase pair, MaxComp + MaxComm, at stochastic
// parameters by calling the tree's stochastic operations in the tree's
// order (TestSORValueMatchesTree, FuzzSORValueMatchesTree); Repeat.Of turns
// it into the run's value, so a caller predicting several iteration counts
// of one decomposition evaluates the model once.
//
// Phase evaluates one phase pair at point parameters — every load and the
// bandwidth fraction a stochastic.Point, the degenerate stochastic value of
// the paper's footnote 1 — and PhasePairs(Iterations) times it is the mean
// the tree returns for them, bit for bit (TestSORPointMatchesTree,
// FuzzSORPointMatchesTree). There bit-identity is a matter of performing the
// tree's float operations on the mean, in the tree's order:
//
//   - a Div is Point(c).MulUnrelated(Point(x).Recip()): c·(1/x), a multiply
//     by the reciprocal and not a divide, and 0 when c or 1/x is 0;
//   - a zero divisor is the tree's error, raised in the tree's evaluation
//     order (every load, lowest strip first, then the bandwidth fraction if
//     any transfer crosses machines);
//   - SumRelated folds from the zero Value, ((0+t)+t)+…, and a transfer
//     between strips of one machine adds 0;
//   - Max resolves by the configured strategy over (mean, spread) pairs.
//     The spread of a point input's term is 0 except where Recip's 0/x² or
//     MulUnrelated's |mean|·0 is NaN (x² underflows, or the mean is not
//     finite), and a NaN spread decides LargestMagnitude and Probabilistic
//     the way it does in stochastic.Max — so it is carried, as 0 or NaN;
//   - Repeat multiplies the mean by 2·NumIts under either IterationRel, so
//     the run's time is that count times Phase, which does not depend on it.
//
// A SORPoint is immutable after construction and safe for concurrent use.
type SORPoint struct {
	strips   []pointStrip
	xfer     float64 // GhostRowBytes / DedBW: one ghost row at full bandwidth
	latency  float64
	charged  bool // some strip pays for a transfer: the bandwidth fraction is read
	strategy stochastic.MaxStrategy
}

// pointStrip is one strip's share of the model.
type pointStrip struct {
	comp float64 // NumElt_p/2 · BM_p, the dedicated time of one color phase
	// charged[:terms] are the strip's PtToPt terms in CommComponent's order
	// (send left, receive left, send right, receive right): whether each
	// crosses machines and so costs a transfer.
	terms   int
	charged [4]bool
}

// PointEvaluator validates the config as Build does and returns its point
// evaluator.
func (c *SORConfig) PointEvaluator() (*SORPoint, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	p := c.Partition.P()
	if p == 0 {
		return nil, errEmptyMax
	}
	switch c.MaxStrategy {
	case stochastic.LargestMean, stochastic.LargestMagnitude, stochastic.Probabilistic:
	default:
		return nil, fmt.Errorf("structural: unknown max strategy %d", c.MaxStrategy)
	}
	e := &SORPoint{
		strips:   make([]pointStrip, p),
		xfer:     c.Partition.GhostRowBytes() / c.Link.DedBW,
		latency:  c.Link.Latency,
		strategy: c.MaxStrategy,
	}
	for i := range e.strips {
		s := &e.strips[i]
		s.comp = float64(c.Partition.Elems(i)) / 2 * (1 / c.Machines[i].ElemRate)
		for _, nb := range []int{i - 1, i + 1} {
			if nb < 0 || nb >= p {
				continue
			}
			cross := !c.sameMachine(i, nb)
			s.charged[s.terms], s.charged[s.terms+1] = cross, cross
			s.terms += 2
			e.charged = e.charged || cross
		}
	}
	return e, nil
}

// Phase returns the time of one phase pair, MaxComp + MaxComm, at the given
// point availabilities: loads[p] is strip p's CPU availability and bw the
// network-availability fraction. It is the same whatever the config's
// iteration count, and fails where the tree does, on a zero divisor, with
// the tree's error.
func (e *SORPoint) Phase(loads []float64, bw float64) (float64, error) {
	if len(loads) != len(e.strips) {
		return 0, fmt.Errorf("structural: %d loads for %d strips", len(loads), len(e.strips))
	}
	var comp, comm pointTerm // the running Max over strips
	for p := range e.strips {
		if loads[p] == 0 {
			return 0, errZeroDivisor(LoadParam(p))
		}
		comp.foldMax(e.strategy, p == 0, pointDiv(e.strips[p].comp, loads[p]))
	}
	// One transfer that crosses machines, the same for every strip:
	// (0 + bytes/DedBW / bw) + latency.
	var t pointTerm
	if e.charged {
		if bw == 0 {
			return 0, errZeroDivisor(BWAvailParam)
		}
		t = pointDiv(e.xfer, bw)
		t = pointTerm{(0 + t.mean) + e.latency, (0 + t.spread) + 0}
	}
	for p := range e.strips {
		s := &e.strips[p]
		var sum pointTerm
		for i := 0; i < s.terms; i++ {
			var term pointTerm
			if s.charged[i] {
				term = t
			}
			sum = pointTerm{sum.mean + term.mean, sum.spread + term.spread}
		}
		comm.foldMax(e.strategy, p == 0, sum)
	}
	return (0 + comp.mean) + comm.mean, nil
}

// PhaseValue returns the stochastic value of one phase pair at the given
// stochastic availabilities — what the Sum under Build's Repeat evaluates
// to, with the tree's errors in the tree's order: a zero-mean load by strip
// before the Max over them, then a zero-mean bandwidth fraction if any
// transfer crosses machines.
func (e *SORPoint) PhaseValue(loads []stochastic.Value, bw stochastic.Value) (stochastic.Value, error) {
	if len(loads) != len(e.strips) {
		return stochastic.Value{}, fmt.Errorf("structural: %d loads for %d strips", len(loads), len(e.strips))
	}
	var buf [16]stochastic.Value // a platform's strips, without a heap slice
	vals := buf[:0]
	for p := range e.strips {
		if loads[p].Mean == 0 {
			return stochastic.Value{}, errZeroDivisor(LoadParam(p))
		}
		vals = append(vals, stochastic.Point(e.strips[p].comp).DivUnrelated(loads[p]))
	}
	maxComp, err := stochastic.Max(e.strategy, vals...)
	if err != nil {
		return stochastic.Value{}, err
	}
	// One transfer that crosses machines, the same for every strip.
	var t stochastic.Value
	if e.charged {
		if bw.Mean == 0 {
			return stochastic.Value{}, errZeroDivisor(BWAvailParam)
		}
		t = stochastic.SumRelated(stochastic.Point(e.xfer).DivUnrelated(bw), stochastic.Point(e.latency))
	}
	vals = vals[:0]
	for p := range e.strips {
		s := &e.strips[p]
		var terms [4]stochastic.Value // a transfer within one machine is PointConst(0)
		for i := 0; i < s.terms; i++ {
			if s.charged[i] {
				terms[i] = t
			}
		}
		vals = append(vals, stochastic.SumRelated(terms[:s.terms]...))
	}
	maxComm, err := stochastic.Max(e.strategy, vals...)
	if err != nil {
		return stochastic.Value{}, err
	}
	return stochastic.SumRelated(maxComp, maxComm), nil
}

// pointTerm is what the tree carries for a node whose inputs are all point
// values: the mean, and a spread that is 0 or NaN.
type pointTerm struct{ mean, spread float64 }

// pointDiv is Point(c).DivUnrelated(Point(x)) for x != 0.
func pointDiv(c, x float64) pointTerm {
	inv := 1 / x
	if c == 0 || inv == 0 {
		return pointTerm{}
	}
	t := pointTerm{mean: float64(c * inv)}
	// Recip's spread is 0/x², NaN once x² underflows to 0 (or x is NaN), and
	// MulUnrelated's is |mean|·Hypot(0/c, spread/(1/x)): NaN for a NaN Recip
	// spread or a mean that is not finite, otherwise 0.
	if x*x == 0 || t.mean-t.mean != 0 {
		t.spread = math.NaN()
	}
	return t
}

// foldMax is stochastic.Max one term at a time: m becomes the Max of itself
// and v, or v when v is the first term.
func (m *pointTerm) foldMax(strategy stochastic.MaxStrategy, first bool, v pointTerm) {
	switch {
	case first:
		*m = v
	case strategy == stochastic.LargestMean:
		if v.mean > m.mean {
			*m = v
		}
	case strategy == stochastic.LargestMagnitude:
		if v.mean+v.spread > m.mean+m.spread {
			*m = v
		}
	default:
		// Probabilistic: Clark's max is exact, math.Max of the means, when
		// both spreads are 0; a NaN spread makes θ and so the mean NaN.
		if m.spread != 0 || v.spread != 0 {
			*m = pointTerm{math.NaN(), math.NaN()}
		} else {
			*m = pointTerm{mean: math.Max(m.mean, v.mean)}
		}
	}
}

var errEmptyMax = errors.New("structural: empty max")

// errZeroDivisor is Div's refusal of a zero-mean divisor.
func errZeroDivisor(divisor string) error {
	return fmt.Errorf("structural: division by zero-mean %s", divisor)
}
