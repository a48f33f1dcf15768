package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"prodpred/internal/load"
)

// SpecVersion is the current ScenarioSpec format version. Parsers accept
// exactly this version; bumping it is the signal that the JSON shape
// changed incompatibly.
const SpecVersion = 2

// ScenarioSpec is the versioned declarative description of a production
// workload: one load per machine plus an optional network contention
// process. A spec plus a seed fully determines every sample the scenario
// will ever emit.
type ScenarioSpec struct {
	Version  int        `json:"version"`
	Name     string     `json:"name"`
	Machines []LoadSpec `json:"machines"`
	Net      *LoadSpec  `json:"net,omitempty"`
}

// LoadSpec describes one load process: a leaf generator or a combinator over
// Children. Kind selects the variant; the other fields parameterize it and
// are ignored by kinds that do not read them. It is the one load language:
// a fleet spec's cpu and net entries, a scenario's machine and net entries
// and a loadgen -spec file all write it.
//
// Seeds: a load with Seed 0 runs on the seed its caller hands it — the
// platform's derived seed for a fleet entry, the run's seed for a scenario
// entry — and child i of a combinator without its own seed runs on
// childSeed(parent, i). Ticks: a leaf ticks every DT virtual seconds, 1 when
// DT is 0; a combinator ticks at its finest child's tick.
type LoadSpec struct {
	// Kind is one of: the presets light, platform1-center,
	// platform1-trimodal, platform2-bursty, ethernet-contention; the leaves
	// constant, diurnal, cohorts, flash-crowd, single-mode, markov-modal,
	// user-sessions, long-tailed, congested, scenario, trace; the
	// combinators sum, modulate, clamp, switch.
	Kind string `json:"kind"`
	Seed int64  `json:"seed,omitempty"`

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
	// single-mode, and the AR(1) shape of markov-modal
	Mean  float64 `json:"mean,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	Phi   float64 `json:"phi,omitempty"`
	DT    float64 `json:"dt,omitempty"`
	// markov-modal (Weights also weighs sum's children, 1 each when absent)
	Modes      []load.ModeSpec `json:"modes,omitempty"`
	Weights    []float64       `json:"weights,omitempty"`
	SwitchProb float64         `json:"switch_prob,omitempty"`
	// user-sessions
	Lambda float64 `json:"lambda,omitempty"`
	Mu     float64 `json:"mu,omitempty"`
	// long-tailed (peak, drop_*) / congested (peak, base_*, burst_*)
	Peak      float64 `json:"peak,omitempty"`
	DropMean  float64 `json:"drop_mean,omitempty"`
	DropStd   float64 `json:"drop_std,omitempty"`
	BaseMean  float64 `json:"base_mean,omitempty"`
	BaseStd   float64 `json:"base_std,omitempty"`
	BurstProb float64 `json:"burst_prob,omitempty"`
	BurstMean float64 `json:"burst_mean,omitempty"`
	BurstStd  float64 `json:"burst_std,omitempty"`
	// scenario: the library scenario's machine entry Machine, or as a
	// network load its net entry.
	Scenario string `json:"scenario,omitempty"`
	Machine  int    `json:"machine,omitempty"`
	// trace: a recorded trace file.
	Path string `json:"path,omitempty"`
	// clamp bounds (Hi 0 means 1)
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// switch: Children[0] until At[0], Children[j] on [At[j-1], At[j]), the
	// last child after the last boundary.
	At       []float64  `json:"at,omitempty"`
	Children []LoadSpec `json:"children,omitempty"`
}

// ParseScenario decodes a ScenarioSpec from JSON, rejecting another format
// version and unknown fields and validating the result.
func ParseScenario(data []byte) (*ScenarioSpec, error) {
	var v struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("workload: parse scenario: %w", err)
	}
	if v.Version != SpecVersion {
		return nil, fmt.Errorf("workload: unsupported scenario version %d (want %d)", v.Version, SpecVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
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

// Validate checks the spec by building every load with a throwaway seed and
// discarding the result.
func (sc *ScenarioSpec) Validate() error {
	if sc.Version != SpecVersion {
		return fmt.Errorf("workload: scenario %q: unsupported version %d (want %d)", sc.Name, sc.Version, SpecVersion)
	}
	if sc.Name == "" {
		return errors.New("workload: scenario needs a name")
	}
	if len(sc.Machines) == 0 {
		return fmt.Errorf("workload: scenario %q: no machines", sc.Name)
	}
	for i := range sc.Machines {
		if _, err := sc.Machines[i].Build(1, false); err != nil {
			return fmt.Errorf("workload: scenario %q machine %d: %w", sc.Name, i, err)
		}
	}
	if sc.Net != nil {
		if _, err := sc.Net.Build(1, true); err != nil {
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
// with fewer machine entries than the platform has machines wrap around
// (entry i%len), with the seed still distinct per machine, so a 4-entry
// scenario drives a 100-machine platform with 100 distinct processes.
func (sc *ScenarioSpec) Machine(i int, seed int64) (load.Process, error) {
	if i < 0 {
		return nil, fmt.Errorf("workload: negative machine index %d", i)
	}
	if len(sc.Machines) == 0 {
		return nil, fmt.Errorf("workload: scenario %q: no machines", sc.Name)
	}
	return sc.Machines[i%len(sc.Machines)].Build(seed, false)
}

// NetProcess builds the scenario's network contention process, or nil if
// the scenario does not define one (contention-free link).
func (sc *ScenarioSpec) NetProcess(seed int64) (load.Process, error) {
	if sc.Net == nil {
		return nil, nil
	}
	return sc.Net.Build(seed, true)
}

// Clone returns a deep copy of the spec, children included.
func (l LoadSpec) Clone() LoadSpec {
	l.Cycles = append([]Cycle(nil), l.Cycles...)
	l.Cohorts = append([]Cohort(nil), l.Cohorts...)
	l.Modes = append([]load.ModeSpec(nil), l.Modes...)
	l.Weights = append([]float64(nil), l.Weights...)
	l.At = append([]float64(nil), l.At...)
	l.Children = append([]LoadSpec(nil), l.Children...)
	for i, c := range l.Children {
		l.Children[i] = c.Clone()
	}
	return l
}

// childSeed derives child i's seed from the parent's: a splitmix-style odd
// multiplier keeps sibling streams decorrelated while staying a pure
// function of (parent seed, child index).
func childSeed(seed int64, i int) int64 {
	return seed*1000003 + int64(i+1)*7919
}

// MaxUsers is the ceiling on a load's user counts: a user-sessions or
// cohorts load's stationary population (lambda/mu, summed over cohorts) and
// mean arrivals per tick (lambda·dt, at a cohort's peak swing), and a
// flash-crowd's users + crowd. Each tick loops over every active user and
// draws its arrivals by Knuth's method, whose exp(-mean) would underflow
// past ~745, so a larger count is refused rather than served slowly or
// wrongly. The library's loads stay under 10.
const MaxUsers = 500

// checkUsers refuses a user count above MaxUsers.
func checkUsers(what string, n float64) error {
	if n > MaxUsers {
		return fmt.Errorf("%s %g exceed the ceiling of %d", what, n, MaxUsers)
	}
	return nil
}

// Build materializes the load; seed is used when the spec names none. As a
// network load (net), a scenario load is the scenario's net entry, not a
// machine's.
func (l *LoadSpec) Build(seed int64, net bool) (load.Process, error) {
	if l.Seed != 0 {
		seed = l.Seed
	}
	dt := l.DT
	if dt == 0 {
		dt = 1
	}
	if !(dt > 0) {
		return nil, fmt.Errorf("%s: dt %g must be positive", l.Kind, l.DT)
	}
	switch l.Kind {
	case "light":
		return load.LightLoad(seed)
	case "platform1-center":
		return load.Platform1CenterMode(seed)
	case "platform1-trimodal":
		return load.Platform1TriModal(seed)
	case "platform2-bursty":
		return load.Platform2FourModeBursty(seed)
	case "ethernet-contention":
		return load.EthernetContention(seed)
	case "constant":
		if l.Level < 0 || l.Level > 1 {
			return nil, fmt.Errorf("constant level %g outside [0,1]", l.Level)
		}
		return load.NewConstant(l.Level), nil
	case "diurnal":
		if len(l.Cycles) == 0 {
			return nil, errors.New("diurnal needs at least one cycle")
		}
		for i, cy := range l.Cycles {
			if !(cy.Period > 0) {
				return nil, fmt.Errorf("diurnal cycle %d: period must be positive", i)
			}
		}
		return &diurnal{base: l.Base, cycles: append([]Cycle(nil), l.Cycles...), dt: dt}, nil
	case "cohorts":
		if len(l.Cohorts) == 0 {
			return nil, errors.New("cohorts needs at least one cohort")
		}
		stationary := 0.0
		for i, co := range l.Cohorts {
			if !(co.Lambda > 0) || !(co.Mu > 0) {
				return nil, fmt.Errorf("cohort %d: lambda and mu must be positive", i)
			}
			if co.Swing < 0 || co.Swing > 1 {
				return nil, fmt.Errorf("cohort %d: swing %g outside [0,1]", i, co.Swing)
			}
			if err := checkUsers(fmt.Sprintf("cohort %d: peak arrivals per tick", i), co.Lambda*(1+co.Swing)*dt); err != nil {
				return nil, err
			}
			stationary += co.Lambda / co.Mu
		}
		if err := checkUsers("cohorts: stationary users", stationary); err != nil {
			return nil, err
		}
		return newCohorts(append([]Cohort(nil), l.Cohorts...), dt, seed), nil
	case "flash-crowd":
		if l.Users < 0 {
			return nil, errors.New("flash-crowd: negative baseline users")
		}
		if !(l.Crowd > 0) || !(l.Ramp > 0) || !(l.Decay > 0) {
			return nil, errors.New("flash-crowd: crowd, ramp, and decay must be positive")
		}
		if l.Onset < 0 || l.Repeat < 0 {
			return nil, errors.New("flash-crowd: negative onset or repeat")
		}
		if err := checkUsers("flash-crowd: users + crowd", l.Users+l.Crowd); err != nil {
			return nil, err
		}
		return newFlashCrowd(l.Users, l.Crowd, l.Onset, l.Ramp, l.Decay, l.Repeat, dt, seed), nil
	case "single-mode":
		return load.NewSingleMode(l.Mean, l.Sigma, l.Phi, dt, seed)
	case "markov-modal":
		return load.NewMarkovModal(l.Modes, l.Weights, l.SwitchProb, l.Phi, dt, seed)
	case "user-sessions":
		if err := checkUsers("user-sessions: stationary users", l.Lambda/l.Mu); err != nil {
			return nil, err
		}
		if err := checkUsers("user-sessions: arrivals per tick", l.Lambda*dt); err != nil {
			return nil, err
		}
		return load.NewUserSessions(l.Lambda, l.Mu, dt, seed)
	case "long-tailed":
		return load.NewLongTailed(l.Peak, l.DropMean, l.DropStd, dt, seed)
	case "congested":
		return load.NewCongested(l.Peak, l.BaseMean, l.BaseStd, l.BurstProb, l.BurstMean, l.BurstStd, dt, seed)
	case "scenario":
		sc, ok := Lookup(l.Scenario)
		if !ok {
			return nil, fmt.Errorf("unknown workload scenario %q (have %v)", l.Scenario, Names())
		}
		if !net {
			return sc.Machine(l.Machine, seed)
		}
		p, err := sc.NetProcess(seed)
		if err == nil && p == nil {
			err = fmt.Errorf("workload scenario %q defines no net load", l.Scenario)
		}
		return p, err
	case "trace":
		if l.Path == "" {
			return nil, errors.New("trace load missing path")
		}
		f, err := os.Open(l.Path)
		if err != nil {
			return nil, fmt.Errorf("trace load: %w", err)
		}
		defer f.Close()
		h, vals, err := ReadTrace(f)
		if err != nil {
			return nil, fmt.Errorf("trace load %q: %w", l.Path, err)
		}
		return TraceProcess(h, vals)
	case "sum":
		children, err := l.buildChildren(seed, net, 2)
		if err != nil {
			return nil, err
		}
		w := l.Weights
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
		children, err := l.buildChildren(seed, net, 2)
		if err != nil {
			return nil, err
		}
		return &modProc{children: children, dt: minInterval(children)}, nil
	case "clamp":
		children, err := l.buildChildren(seed, net, 1)
		if err != nil {
			return nil, err
		}
		if len(children) != 1 {
			return nil, fmt.Errorf("clamp: wants exactly one child, got %d", len(children))
		}
		lo, hi := l.Lo, l.Hi
		if hi == 0 {
			hi = 1
		}
		if lo < 0 || hi > 1 || lo >= hi {
			return nil, fmt.Errorf("clamp: bad bounds [%g, %g]", lo, hi)
		}
		return &clampProc{child: children[0], lo: lo, hi: hi}, nil
	case "switch":
		children, err := l.buildChildren(seed, net, 2)
		if err != nil {
			return nil, err
		}
		return load.NewSwitch(l.At, children...)
	case "":
		return nil, errors.New("load spec missing kind")
	default:
		return nil, fmt.Errorf("unknown load kind %q", l.Kind)
	}
}

// buildChildren builds a combinator's child processes, each on its own seed
// or on childSeed(seed, i).
func (l *LoadSpec) buildChildren(seed int64, net bool, min int) ([]load.Process, error) {
	if len(l.Children) < min {
		return nil, fmt.Errorf("%s: wants at least %d children, got %d", l.Kind, min, len(l.Children))
	}
	out := make([]load.Process, len(l.Children))
	for i := range l.Children {
		p, err := l.Children[i].Build(childSeed(seed, i), net)
		if err != nil {
			return nil, fmt.Errorf("%s child %d: %w", l.Kind, i, err)
		}
		out[i] = p
	}
	return out, nil
}
