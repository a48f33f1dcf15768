package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"prodpred/internal/load"
)

// SpecVersion is the current ScenarioSpec format version. Parsers accept
// exactly this version; bumping it is the signal that the JSON shape
// changed incompatibly.
const SpecVersion = 1

// ScenarioSpec is the versioned declarative description of a production
// workload: one component tree per machine plus an optional network
// contention process. A spec plus a seed fully determines every sample the
// scenario will ever emit.
type ScenarioSpec struct {
	Version  int             `json:"version"`
	Name     string          `json:"name"`
	DT       float64         `json:"dt,omitempty"` // default tick seconds (1 if omitted)
	Machines []ComponentSpec `json:"machines"`
	Net      *ComponentSpec  `json:"net,omitempty"`
}

// ComponentSpec is one node of a scenario's component tree — either a leaf
// generator or a combinator over Children. Kind selects the variant; the
// other fields are kind-specific and ignored elsewhere.
//
// Leaves: "constant", "diurnal", "cohorts", "flash-crowd", "heavy-tail",
// "congested", "single-mode", "user-sessions", "preset".
// Combinators: "sum", "modulate", "clamp", "switch".
type ComponentSpec struct {
	Kind string `json:"kind"`

	// constant
	Level float64 `json:"level,omitempty"`

	// diurnal
	Base   float64 `json:"base,omitempty"`
	Cycles []Cycle `json:"cycles,omitempty"`

	// cohorts
	Cohorts []Cohort `json:"cohorts,omitempty"`

	// flash-crowd
	Users  float64 `json:"users,omitempty"`
	Crowd  float64 `json:"crowd,omitempty"`
	Onset  float64 `json:"onset,omitempty"`
	Ramp   float64 `json:"ramp,omitempty"`
	Decay  float64 `json:"decay,omitempty"`
	Repeat float64 `json:"repeat,omitempty"`

	// heavy-tail / congested
	Peak      float64 `json:"peak,omitempty"`
	DropMean  float64 `json:"dropMean,omitempty"`
	DropStd   float64 `json:"dropStd,omitempty"`
	BurstProb float64 `json:"burstProb,omitempty"`
	BurstMean float64 `json:"burstMean,omitempty"`
	BurstStd  float64 `json:"burstStd,omitempty"`

	// single-mode
	Mean  float64 `json:"mean,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	Phi   float64 `json:"phi,omitempty"`

	// user-sessions
	Lambda float64 `json:"lambda,omitempty"`
	Mu     float64 `json:"mu,omitempty"`

	// preset: one of the named constructors in internal/load
	Preset string `json:"preset,omitempty"`

	// combinators
	Children []ComponentSpec `json:"children,omitempty"`
	Weights  []float64       `json:"weights,omitempty"` // sum: default 1 each
	Lo       float64         `json:"lo,omitempty"`      // clamp lower bound
	Hi       float64         `json:"hi,omitempty"`      // clamp upper bound (0 = 1)
	At       []float64       `json:"at,omitempty"`      // switch boundaries, ascending

	// DT overrides the scenario's default tick for this subtree's leaves.
	DT float64 `json:"dt,omitempty"`
}

// ParseScenario decodes a ScenarioSpec from JSON, rejecting unknown fields
// and validating the result — same strictness as predict.ParseSpecs.
func ParseScenario(data []byte) (*ScenarioSpec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var sc ScenarioSpec
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("workload: parse scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// tick returns the scenario's default tick.
func (sc *ScenarioSpec) tick() float64 {
	if sc.DT > 0 {
		return sc.DT
	}
	return 1
}

// Validate checks the spec by building every component with a throwaway
// seed and discarding the result.
func (sc *ScenarioSpec) Validate() error {
	if sc.Version != SpecVersion {
		return fmt.Errorf("workload: scenario %q: unsupported version %d (want %d)", sc.Name, sc.Version, SpecVersion)
	}
	if sc.Name == "" {
		return errors.New("workload: scenario needs a name")
	}
	if sc.DT < 0 {
		return fmt.Errorf("workload: scenario %q: negative dt", sc.Name)
	}
	if len(sc.Machines) == 0 {
		return fmt.Errorf("workload: scenario %q: no machines", sc.Name)
	}
	for i := range sc.Machines {
		if _, err := sc.Machines[i].build(sc.tick(), 1); err != nil {
			return fmt.Errorf("workload: scenario %q machine %d: %w", sc.Name, i, err)
		}
	}
	if sc.Net != nil {
		if _, err := sc.Net.build(sc.tick(), 1); err != nil {
			return fmt.Errorf("workload: scenario %q net: %w", sc.Name, err)
		}
	}
	return nil
}

// Hash returns a short stable digest of the spec's canonical JSON, stamped
// into trace headers so a replayed trace can be matched to the exact spec
// that produced it.
func (sc *ScenarioSpec) Hash() string {
	b, err := json.Marshal(sc)
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Machine builds machine i's load process under the given seed. Scenarios
// with fewer component entries than the platform has machines wrap around
// (entry i%len), with the seed still distinct per machine, so a 4-entry
// scenario drives a 100-machine platform with 100 distinct processes.
func (sc *ScenarioSpec) Machine(i int, seed int64) (load.Process, error) {
	if i < 0 {
		return nil, fmt.Errorf("workload: negative machine index %d", i)
	}
	if len(sc.Machines) == 0 {
		return nil, fmt.Errorf("workload: scenario %q: no machines", sc.Name)
	}
	c := &sc.Machines[i%len(sc.Machines)]
	return c.build(sc.tick(), seed)
}

// NetProcess builds the scenario's network contention process, or nil if
// the scenario does not define one (contention-free link).
func (sc *ScenarioSpec) NetProcess(seed int64) (load.Process, error) {
	if sc.Net == nil {
		return nil, nil
	}
	return sc.Net.build(sc.tick(), seed)
}

// childSeed derives child i's seed from the parent's: a splitmix-style odd
// multiplier keeps sibling streams decorrelated while staying a pure
// function of (parent seed, child index).
func childSeed(seed int64, i int) int64 {
	return seed*1000003 + int64(i+1)*7919
}

// build constructs the process for a component. dt is the default tick
// inherited from the scenario (or an enclosing DT override); seed is this
// node's random stream.
func (c *ComponentSpec) build(dt float64, seed int64) (load.Process, error) {
	if c.DT < 0 {
		return nil, errors.New("negative dt")
	}
	if c.DT > 0 {
		dt = c.DT
	}
	switch c.Kind {
	case "constant":
		if c.Level < 0 || c.Level > 1 {
			return nil, fmt.Errorf("constant level %g outside [0,1]", c.Level)
		}
		return load.NewConstant(c.Level), nil
	case "diurnal":
		if len(c.Cycles) == 0 {
			return nil, errors.New("diurnal needs at least one cycle")
		}
		for i, cy := range c.Cycles {
			if !(cy.Period > 0) {
				return nil, fmt.Errorf("diurnal cycle %d: period must be positive", i)
			}
		}
		return &diurnal{base: c.Base, cycles: append([]Cycle(nil), c.Cycles...), dt: dt}, nil
	case "cohorts":
		if len(c.Cohorts) == 0 {
			return nil, errors.New("cohorts needs at least one cohort")
		}
		for i, co := range c.Cohorts {
			if !(co.Lambda > 0) || !(co.Mu > 0) {
				return nil, fmt.Errorf("cohort %d: lambda and mu must be positive", i)
			}
			if co.Swing < 0 || co.Swing > 1 {
				return nil, fmt.Errorf("cohort %d: swing %g outside [0,1]", i, co.Swing)
			}
		}
		return newCohorts(append([]Cohort(nil), c.Cohorts...), dt, seed), nil
	case "flash-crowd":
		if c.Users < 0 {
			return nil, errors.New("flash-crowd: negative baseline users")
		}
		if !(c.Crowd > 0) || !(c.Ramp > 0) || !(c.Decay > 0) {
			return nil, errors.New("flash-crowd: crowd, ramp, and decay must be positive")
		}
		if c.Onset < 0 || c.Repeat < 0 {
			return nil, errors.New("flash-crowd: negative onset or repeat")
		}
		return newFlashCrowd(c.Users, c.Crowd, c.Onset, c.Ramp, c.Decay, c.Repeat, dt, seed), nil
	case "heavy-tail":
		return load.NewLongTailed(c.Peak, c.DropMean, c.DropStd, dt, seed)
	case "congested":
		return load.NewCongested(c.Peak, c.DropMean, c.DropStd, c.BurstProb, c.BurstMean, c.BurstStd, dt, seed)
	case "single-mode":
		return load.NewSingleMode(c.Mean, c.Sigma, c.Phi, dt, seed)
	case "user-sessions":
		return load.NewUserSessions(c.Lambda, c.Mu, dt, seed)
	case "preset":
		switch c.Preset {
		case "platform1-center":
			return load.Platform1CenterMode(seed)
		case "platform1-trimodal":
			return load.Platform1TriModal(seed)
		case "platform2-bursty":
			return load.Platform2FourModeBursty(seed)
		case "light":
			return load.LightLoad(seed)
		case "ethernet-contention":
			return load.EthernetContention(seed)
		default:
			return nil, fmt.Errorf("unknown preset %q", c.Preset)
		}
	case "sum":
		children, err := c.buildChildren(dt, seed, 2)
		if err != nil {
			return nil, err
		}
		w := c.Weights
		if len(w) == 0 {
			w = make([]float64, len(children))
			for i := range w {
				w[i] = 1
			}
		}
		if len(w) != len(children) {
			return nil, fmt.Errorf("sum: %d weights for %d children", len(w), len(children))
		}
		return &sumProc{children: children, weights: append([]float64(nil), w...), dt: minInterval(children)}, nil
	case "modulate":
		children, err := c.buildChildren(dt, seed, 2)
		if err != nil {
			return nil, err
		}
		return &modProc{children: children, dt: minInterval(children)}, nil
	case "clamp":
		children, err := c.buildChildren(dt, seed, 1)
		if err != nil {
			return nil, err
		}
		if len(children) != 1 {
			return nil, fmt.Errorf("clamp: wants exactly one child, got %d", len(children))
		}
		lo, hi := c.Lo, c.Hi
		if hi == 0 {
			hi = 1
		}
		if lo < 0 || hi > 1 || lo >= hi {
			return nil, fmt.Errorf("clamp: bad bounds [%g, %g]", lo, hi)
		}
		return &clampProc{child: children[0], lo: lo, hi: hi}, nil
	case "switch":
		children, err := c.buildChildren(dt, seed, 2)
		if err != nil {
			return nil, err
		}
		if len(c.At) != len(children)-1 {
			return nil, fmt.Errorf("switch: %d boundaries for %d children (want %d)", len(c.At), len(children), len(children)-1)
		}
		prev := 0.0
		for i, b := range c.At {
			if !(b > prev) {
				return nil, fmt.Errorf("switch: boundary %d (%g) not ascending and positive", i, b)
			}
			prev = b
		}
		return load.NewSwitch(c.At, children...)
	case "":
		return nil, errors.New("component missing kind")
	default:
		return nil, fmt.Errorf("unknown component kind %q", c.Kind)
	}
}

// buildChildren builds a combinator's child processes with derived seeds.
func (c *ComponentSpec) buildChildren(dt float64, seed int64, min int) ([]load.Process, error) {
	if len(c.Children) < min {
		return nil, fmt.Errorf("%s: wants at least %d children, got %d", c.Kind, min, len(c.Children))
	}
	out := make([]load.Process, len(c.Children))
	for i := range c.Children {
		p, err := c.Children[i].build(dt, childSeed(seed, i))
		if err != nil {
			return nil, fmt.Errorf("%s child %d: %w", c.Kind, i, err)
		}
		out[i] = p
	}
	return out, nil
}
