// Package load implements the stochastic CPU-availability processes that
// stand in for the paper's production machines. The paper's experiments ran
// on shared Sparc workstations whose "CPU load" signal — as supplied by the
// Network Weather Service — is the *fraction of CPU available* to the
// application (§2.2.1 divides benchmark time by that fraction). All
// processes here therefore emit values in [0, 1].
//
// Three statistical classes of signal matter to the reproduction:
//
//   - single-mode load that wanders within one normal mode (Figure 8,
//     Platform 1),
//   - multi-modal bursty load that jumps between modes (Figures 10-11,
//     Platform 2), and
//   - long-tailed contention (the bandwidth histograms of Figure 3).
//
// Every process is deterministic given its seed and piecewise-constant over
// ticks of Interval() seconds, which lets the simulator integrate work
// progress in closed form segment by segment.
package load

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"prodpred/internal/timeseries"
)

// Process is a time-varying CPU-availability signal. At returns the
// fraction of CPU available at virtual time t >= 0; values are constant
// within ticks of Interval() seconds. Implementations are safe for
// concurrent use.
type Process interface {
	At(t float64) float64
	Interval() float64
}

// Constant is a fixed availability level.
type Constant struct {
	Level float64
}

// NewConstant returns a constant process clamped to [0, 1].
func NewConstant(level float64) Constant {
	return Constant{Level: Clamp01(level)}
}

// At implements Process.
func (c Constant) At(float64) float64 { return c.Level }

// Interval implements Process. Constants use a nominal 1-second tick.
func (c Constant) Interval() float64 { return 1 }

// Dedicated is full availability — a machine with no competing users.
func Dedicated() Constant { return Constant{Level: 1} }

// Clamp01 bounds x to the availability range [0, 1].
func Clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}

// Sequence is a Process materialized lazily, one tick of dt seconds at a
// time, from a generator that must run in tick order (AR(1) wander and
// population counts evolve tick to tick): tick i's value is gen(i, tick
// i-1's value), NaN standing in for the value before tick 0. Generated ticks
// are kept, so At is deterministic and pure from the caller's view.
type Sequence struct {
	mu   sync.Mutex
	vals []float64
	gen  func(i int, prev float64) float64
	dt   float64
}

// NewSequence returns the Sequence of gen over ticks of dt seconds.
func NewSequence(dt float64, gen func(i int, prev float64) float64) *Sequence {
	return &Sequence{gen: gen, dt: dt}
}

// Interval implements Process.
func (c *Sequence) Interval() float64 { return c.dt }

// At implements Process.
func (c *Sequence) At(t float64) float64 {
	if t < 0 {
		t = 0
	}
	idx := int(t / c.dt)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.vals) <= idx {
		prev := math.NaN()
		if n := len(c.vals); n > 0 {
			prev = c.vals[n-1]
		}
		c.vals = append(c.vals, c.gen(len(c.vals), prev))
	}
	return c.vals[idx]
}

// NewSingleMode returns availability that wanders within one mode: an
// AR(1) process with the given mean and stationary standard deviation,
// clamped to [0, 1]. phi controls smoothness (0 = white noise, close to 1 =
// slow wander like the paper's Figure 8 trace). mean must lie in [0,1],
// sigma > 0, and 0 <= phi < 1.
func NewSingleMode(mean, sigma, phi, dt float64, seed int64) (*Sequence, error) {
	if mean < 0 || mean > 1 {
		return nil, fmt.Errorf("load: mean %g outside [0,1]", mean)
	}
	if !(sigma > 0) {
		return nil, errors.New("load: sigma must be positive")
	}
	if phi < 0 || phi >= 1 {
		return nil, fmt.Errorf("load: phi %g outside [0,1)", phi)
	}
	if !(dt > 0) {
		return nil, errors.New("load: dt must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	// Innovation scale chosen so the stationary std is sigma.
	innov := sigma * math.Sqrt(1-phi*phi)
	gen := func(i int, prev float64) float64 {
		if i == 0 {
			return Clamp01(mean + sigma*rng.NormFloat64())
		}
		return Clamp01(mean + phi*(prev-mean) + innov*rng.NormFloat64())
	}
	return NewSequence(dt, gen), nil
}

// ModeSpec describes one mode of a Markov-modulated process.
type ModeSpec struct {
	Mean  float64 `json:"mean"`  // availability mean in [0,1]
	Sigma float64 `json:"sigma"` // within-mode std dev
}

// NewMarkovModal returns availability that jumps between modes according
// to a per-tick switching probability and mode-stationary weights, with
// AR(1) wander inside the current mode. This reproduces the "multi-modal
// bursty" load of the paper's Platform 2 (Figures 10-11): dwell periods in
// a mode punctuated by abrupt jumps. switchProb is the per-tick probability
// of re-drawing the mode from weights; phi is the within-mode AR(1)
// smoothness. The process keeps its own copy of modes.
func NewMarkovModal(modes []ModeSpec, weights []float64, switchProb, phi, dt float64, seed int64) (*Sequence, error) {
	if len(modes) == 0 {
		return nil, errors.New("load: no modes")
	}
	if len(weights) != len(modes) {
		return nil, errors.New("load: weight length mismatch")
	}
	total := 0.0
	for i, m := range modes {
		if m.Mean < 0 || m.Mean > 1 {
			return nil, fmt.Errorf("load: mode %d mean %g outside [0,1]", i, m.Mean)
		}
		if !(m.Sigma > 0) {
			return nil, fmt.Errorf("load: mode %d sigma must be positive", i)
		}
		if weights[i] < 0 {
			return nil, fmt.Errorf("load: negative weight %g", weights[i])
		}
		total += weights[i]
	}
	if total <= 0 {
		return nil, errors.New("load: weights sum to zero")
	}
	if switchProb < 0 || switchProb > 1 {
		return nil, fmt.Errorf("load: switchProb %g outside [0,1]", switchProb)
	}
	if phi < 0 || phi >= 1 {
		return nil, fmt.Errorf("load: phi %g outside [0,1)", phi)
	}
	if !(dt > 0) {
		return nil, errors.New("load: dt must be positive")
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / total
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func() int {
		u := rng.Float64()
		acc := 0.0
		for i, w := range norm {
			acc += w
			if u < acc {
				return i
			}
		}
		return len(norm) - 1
	}
	modes = append([]ModeSpec(nil), modes...)
	cur := -1
	gen := func(i int, prev float64) float64 {
		if i == 0 || rng.Float64() < switchProb {
			cur = pick()
			prev = math.NaN()
		}
		m := modes[cur]
		if math.IsNaN(prev) {
			return Clamp01(m.Mean + m.Sigma*rng.NormFloat64())
		}
		innov := m.Sigma * math.Sqrt(1-phi*phi)
		return Clamp01(m.Mean + phi*(prev-m.Mean) + innov*rng.NormFloat64())
	}
	return NewSequence(dt, gen), nil
}

// Trace wraps a recorded time series as a Process (last observation carried
// forward), for replaying measured or exported load signals.
type Trace struct {
	s  *timeseries.Series
	dt float64
}

// NewTrace wraps s; dt is the nominal tick used by Interval. Values are
// clamped to [0,1] on read. The series must be non-empty.
func NewTrace(s *timeseries.Series, dt float64) (*Trace, error) {
	if s == nil || s.Len() == 0 {
		return nil, errors.New("load: empty trace")
	}
	if !(dt > 0) {
		return nil, errors.New("load: dt must be positive")
	}
	return &Trace{s: s, dt: dt}, nil
}

// At implements Process. Times before the first observation return the
// first observation.
func (tr *Trace) At(t float64) float64 {
	v, ok := tr.s.ValueAt(t)
	if !ok {
		v = tr.s.At(0).V
	}
	return Clamp01(v)
}

// Interval implements Process.
func (tr *Trace) Interval() float64 { return tr.dt }

// NewUniformTrace wraps s like NewTrace but additionally requires the
// series to be sampled on a uniform grid of spacing dt. The replay path
// (workload trace files, predictd -record-traces) leans on this: a uniform
// grid guarantees last-observation-carried-forward lookup lands on exactly
// the sample the original generator emitted for that tick, which is what
// makes record→replay bit-identical.
func NewUniformTrace(s *timeseries.Series, dt float64) (*Trace, error) {
	tr, err := NewTrace(s, dt)
	if err != nil {
		return nil, err
	}
	t0 := s.At(0).T
	for i := 1; i < s.Len(); i++ {
		want := t0 + float64(i)*dt
		if math.Abs(s.At(i).T-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return nil, fmt.Errorf("load: non-uniform trace: sample %d at t=%g, want %g (dt=%g)", i, s.At(i).T, want, dt)
		}
	}
	return tr, nil
}

// NewUserSessions returns availability driven by an M/M/infinity population
// of competing users: users arrive at rate lambda per second, stay for
// exponential sessions of mean 1/mu seconds, and the application receives a
// 1/(1+n) share of the CPU when n users are active. This is the generative
// story behind "machine B is much faster ... it has more users and
// therefore a more dynamic load" (§1.2). lambda and mu must be positive.
func NewUserSessions(lambda, mu, dt float64, seed int64) (*Sequence, error) {
	if !(lambda > 0) || !(mu > 0) {
		return nil, errors.New("load: lambda and mu must be positive")
	}
	if !(dt > 0) {
		return nil, errors.New("load: dt must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	// Track the active-user count tick to tick. Within a tick of length
	// dt, arrivals ~ Poisson(lambda*dt) and each active user departs with
	// probability 1 - exp(-mu*dt).
	n := 0
	// Start at the stationary mean to skip burn-in.
	n = int(lambda / mu)
	pDepart := 1 - math.Exp(-mu*dt)
	gen := func(i int, prev float64) float64 {
		stay := 0
		for j := 0; j < n; j++ {
			if rng.Float64() >= pDepart {
				stay++
			}
		}
		n = stay + Poisson(rng, lambda*dt)
		return 1 / float64(1+n)
	}
	return NewSequence(dt, gen), nil
}

// Poisson draws a Poisson(mean) variate by Knuth's method; mean values here
// are small (a few arrivals per tick).
func Poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 { // numerical guard; unreachable for sane means
			return k
		}
	}
}

// Switch composes processes into piecewise regime changes at fixed virtual
// times. Every regime keeps its own absolute clock, so a bursty late regime
// is already "running" when the switch lands. This is the drift-detection
// experiments' ground truth — a machine that is steady for the first half of
// a series and turns Platform-2-bursty at a known instant — and the workload
// scenarios' switch-at-time combinator.
type Switch struct {
	regimes []Process
	at      []float64 // len(regimes)-1 ascending boundaries
	dt      float64
}

// NewSwitch returns a process that follows regimes[0] on [0, at[0]),
// regimes[j] on [at[j-1], at[j]) and the last regime from the last boundary
// on: at holds one positive, ascending boundary fewer than there are
// regimes. For the piecewise-constant contract to hold exactly, each
// boundary should fall on a tick boundary of the regimes it separates.
func NewSwitch(at []float64, regimes ...Process) (*Switch, error) {
	if len(regimes) < 2 || len(at) != len(regimes)-1 {
		return nil, fmt.Errorf("load: switch needs at least two regimes and one boundary fewer, got %d regimes and %d boundaries", len(regimes), len(at))
	}
	prev := 0.0
	for i, b := range at {
		if !(b > prev) {
			return nil, fmt.Errorf("load: switch boundary %d (%g) not ascending and positive", i, b)
		}
		prev = b
	}
	dt := math.Inf(1)
	for i, p := range regimes {
		if p == nil {
			return nil, fmt.Errorf("load: switch regime %d is nil", i)
		}
		dt = math.Min(dt, p.Interval())
	}
	return &Switch{regimes: append([]Process(nil), regimes...), at: append([]float64(nil), at...), dt: dt}, nil
}

// At implements Process.
func (s *Switch) At(t float64) float64 {
	for j, b := range s.at {
		if t < b {
			return s.regimes[j].At(t)
		}
	}
	return s.regimes[len(s.regimes)-1].At(t)
}

// Interval implements Process: the finest of the regimes' ticks.
func (s *Switch) Interval() float64 { return s.dt }

// Record samples the process every dt from t0 to t1 and returns the series,
// the shape consumed by histogram figures and by modal fitting.
func Record(p Process, t0, t1, dt float64) (*timeseries.Series, error) {
	if !(dt > 0) || t1 < t0 {
		return nil, errors.New("load: bad recording range")
	}
	// Integer step index, not t += dt: accumulated rounding on steps like
	// 0.1 would skip or duplicate the final sample on long recordings.
	n := int(math.Floor((t1-t0)/dt + 1e-9))
	s := timeseries.NewSeries(n + 1)
	for i := 0; i <= n; i++ {
		t := t0 + float64(i)*dt
		if err := s.Append(t, p.At(t)); err != nil {
			return nil, err
		}
	}
	return s, nil
}
