package structural

import (
	"errors"
	"fmt"
	"strconv"

	"prodpred/internal/cluster"
	"prodpred/internal/sor"
	"prodpred/internal/stochastic"
)

// LoadParam returns the parameter name of processor p's CPU availability,
// "load[p]". It runs per machine on every cache miss, so it is built without
// fmt.
func LoadParam(p int) string { return "load[" + strconv.Itoa(p) + "]" }

// BWAvailParam is the parameter name of the network-availability fraction.
const BWAvailParam = "bwavail"

// SORConfig describes the distributed SOR run being modeled: the problem,
// the decomposition, and the machines executing each strip.
type SORConfig struct {
	N          int            // grid size
	Iterations int            // NumIts
	Partition  *sor.Partition // strip decomposition
	Machines   []cluster.Machine
	// MachineIdx maps each strip to its platform machine index; strips on
	// the same machine exchange ghost rows for free, matching the
	// simulator. When nil, all strips are assumed to be on distinct
	// machines.
	MachineIdx []int
	Link       cluster.Link
	// MaxStrategy resolves the Max over processors (§2.3.3).
	MaxStrategy stochastic.MaxStrategy
	// IterationRel governs how the per-phase values combine across the
	// NumIts iterations: Related (default, the paper's choice — each
	// iteration sees the same system state, spread scales with NumIts) or
	// Unrelated (iterations as independent draws, spread scales with
	// sqrt(NumIts)). See the iteration-relation ablation.
	IterationRel Relation
}

func (c *SORConfig) validate() error {
	if c.Partition == nil {
		return errors.New("structural: nil partition")
	}
	if err := c.Partition.Validate(); err != nil {
		return err
	}
	if c.N != c.Partition.N {
		return fmt.Errorf("structural: N=%d does not match partition N=%d", c.N, c.Partition.N)
	}
	if c.Iterations <= 0 {
		return errors.New("structural: iterations must be positive")
	}
	if len(c.Machines) != c.Partition.P() {
		return fmt.Errorf("structural: %d machines for %d strips", len(c.Machines), c.Partition.P())
	}
	for _, m := range c.Machines {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	if c.MachineIdx != nil && len(c.MachineIdx) != c.Partition.P() {
		return errors.New("structural: MachineIdx length mismatch")
	}
	return c.Link.Validate()
}

func (c *SORConfig) sameMachine(a, b int) bool {
	if c.MachineIdx == nil {
		return false
	}
	return c.MachineIdx[a] == c.MachineIdx[b]
}

// CompComponent returns the computation component model for one color
// phase on strip p (the paper's Comp_p2 / load form):
//
//	Comp_p = NumElt_p/2 * BM(Elt_p) / load_p
//
// where BM is the dedicated per-element benchmark time (1/ElemRate) and
// load_p is the stochastic CPU-availability parameter.
func (c *SORConfig) CompComponent(p int) Component {
	elems := float64(c.Partition.Elems(p)) / 2
	bm := 1 / c.Machines[p].ElemRate
	return Div{
		Rel: Unrelated,
		A:   PointConst(elems * bm),
		B:   Param(LoadParam(p)),
	}
}

// PtToPtComponent returns the point-to-point communication model of
// §2.2.1 for one ghost row from strip x to strip y:
//
//	PtToPt(x,y) = NumElt * Size(Elt) / (DedBW * BWAvail) + Latency
//
// Transfers between strips on the same machine cost zero.
func (c *SORConfig) PtToPtComponent(x, y int) Component {
	if c.sameMachine(x, y) {
		return PointConst(0)
	}
	bytes := c.Partition.GhostRowBytes()
	return Sum{Rel: Related, Terms: []Component{
		Div{
			Rel: Unrelated,
			A:   PointConst(bytes / c.Link.DedBW),
			B:   Param(BWAvailParam),
		},
		PointConst(c.Link.Latency),
	}}
}

// CommComponent returns the communication component for one color phase on
// strip p: SendLR_p + ReceLR_p, the sends to and receipts from both
// neighbors (edge strips have one neighbor).
func (c *SORConfig) CommComponent(p int) Component {
	var terms []Component
	last := c.Partition.P() - 1
	if p > 0 {
		terms = append(terms,
			c.PtToPtComponent(p, p-1), // SendLR: to left neighbor
			c.PtToPtComponent(p-1, p), // ReceLR: from left neighbor
		)
	}
	if p < last {
		terms = append(terms,
			c.PtToPtComponent(p, p+1),
			c.PtToPtComponent(p+1, p),
		)
	}
	if len(terms) == 0 {
		return PointConst(0) // single strip: no communication
	}
	// Successive transfers on the shared medium contend with each other:
	// related combination.
	return Sum{Rel: Related, Terms: terms}
}

// Build assembles the full structural model of §2.2.1:
//
//	ExTime = Sum_{i=1..NumIts} [ Max_p{RedComp_p} + Max_p{RedComm_p}
//	                           + Max_p{BlackComp_p} + Max_p{BlackComm_p} ]
//
// Red and black phases use identical component models (the strips do half
// their points in each), so the sum collapses to NumIts * 2 * (MaxComp +
// MaxComm) with time-invariant parameters.
func (c *SORConfig) Build() (Component, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	p := c.Partition.P()
	comps := make([]Component, p)
	comms := make([]Component, p)
	for i := 0; i < p; i++ {
		comps[i] = c.CompComponent(i)
		comms[i] = c.CommComponent(i)
	}
	perPhasePair := Sum{Rel: Related, Terms: []Component{
		MaxOver{Strategy: c.MaxStrategy, Terms: comps},
		MaxOver{Strategy: c.MaxStrategy, Terms: comms},
	}}
	return Repeat{K: PhasePairs(c.Iterations), Rel: c.IterationRel, C: perPhasePair}, nil
}

// PhasePairs is how many times an SOR run of the given iteration count
// repeats the per-phase-pair value: red and black each iteration.
func PhasePairs(iterations int) float64 { return 2 * float64(iterations) }

// Predict builds the model and evaluates it against params, returning the
// stochastic execution-time prediction.
func (c *SORConfig) Predict(params Params) (stochastic.Value, error) {
	model, err := c.Build()
	if err != nil {
		return stochastic.Value{}, err
	}
	return model.Eval(params)
}

// DedicatedParams returns the parameter set of an unloaded system: every
// load at point value 1 and full bandwidth availability.
func (c *SORConfig) DedicatedParams() Params {
	params := Params{BWAvailParam: stochastic.Point(1)}
	for p := 0; p < c.Partition.P(); p++ {
		params[LoadParam(p)] = stochastic.Point(1)
	}
	return params
}
