// Package workload composes the primitive load processes of internal/load
// into production-shaped machine loads, and holds the one language every
// load is declared in: LoadSpec, read by fleet specs (predict.PlatformSpec's
// cpu and net entries, snapshot images), by versioned scenario specs and by
// cmd/loadgen. Its kinds are the paper's calibrated presets and generators,
// diurnal multi-period cycles, user cohorts with distinct arrival patterns,
// flash-crowd ramps, heavy-tailed contention, library scenarios and
// recorded traces, under deterministic combinators (sum, modulate, clamp,
// switch-at-time).
//
// The paper's evaluation runs two platforms and one switch process; a
// production fleet sees "extreme variability" (arXiv 1801.03898) — diurnal
// swings, flash crowds, heavy-tailed batch contention — and the scenario
// library is the generator for exactly those regimes. Everything stays
// inside the availability convention of internal/load: every process emits
// the fraction of CPU available in [0, 1], piecewise-constant over ticks,
// and is a pure function of (spec, seed, virtual time), so two builds of the
// same spec are bit-identical.
//
// The package also defines the versioned trace interchange format
// (TraceHeader + one sample per line) that cmd/loadgen writes, cmd/predictd
// records on shutdown, and a "trace" load replays — the record/replay seam
// that turns any served workload into a reproducible test input.
package workload

import (
	"math"
	"math/rand"

	"prodpred/internal/load"
)

// Cycle is one sinusoidal component of a diurnal availability pattern.
// Availability contribution is Amp * sin(2π·t/Period + Phase); stacking a
// long and a short Period reproduces the day-plus-lunch-spike shape of web
// traffic. Periods are virtual seconds — scenarios typically compress a
// "day" into minutes of virtual time.
type Cycle struct {
	Period float64 `json:"period"`          // seconds per cycle (> 0)
	Amp    float64 `json:"amp"`             // availability amplitude
	Phase  float64 `json:"phase,omitempty"` // radians
}

// diurnal is the deterministic multi-period cycle component: availability
// Base + Σ Amp·sin(2πt/Period + Phase), clamped to [0,1] and quantized to
// tick starts so the piecewise-constant Process contract holds exactly.
type diurnal struct {
	base   float64
	cycles []Cycle
	dt     float64
}

func (d *diurnal) At(t float64) float64 {
	if t < 0 {
		t = 0
	}
	// Quantize to the tick start: the value is constant within a tick.
	tq := math.Floor(t/d.dt) * d.dt
	v := d.base
	for _, c := range d.cycles {
		v += c.Amp * math.Sin(2*math.Pi*tq/c.Period+c.Phase)
	}
	return load.Clamp01(v)
}

func (d *diurnal) Interval() float64 { return d.dt }

// Cohort is one user population with its own arrival pattern: an M/M/∞
// pool (arrivals Lambda/s, mean session 1/Mu s) whose arrival rate can ramp
// in at Start and swing diurnally (rate × (1 + Swing·sin(2πt/Period +
// Phase))). Distinct cohorts — office workers, overnight batch, an
// international audience a phase apart — compose into one machine's
// competing-user count.
type Cohort struct {
	Lambda float64 `json:"lambda"`           // arrivals per second (> 0)
	Mu     float64 `json:"mu"`               // session end rate (> 0)
	Start  float64 `json:"start,omitempty"`  // arrivals begin at this time
	Period float64 `json:"period,omitempty"` // diurnal swing period (0 = flat)
	Swing  float64 `json:"swing,omitempty"`  // relative rate swing in [0,1]
	Phase  float64 `json:"phase,omitempty"`  // radians
}

// rateAt returns the cohort's arrival rate at tick-start time t.
func (c Cohort) rateAt(t float64) float64 {
	if t < c.Start {
		return 0
	}
	r := c.Lambda
	if c.Period > 0 && c.Swing != 0 {
		r *= 1 + c.Swing*math.Sin(2*math.Pi*t/c.Period+c.Phase)
	}
	if r < 0 {
		return 0
	}
	return r
}

// newCohorts builds the cohort-population process: each cohort keeps its
// own active-user count (per-tick exponential departures, Poisson arrivals
// at its possibly time-varying rate), and the application receives a
// 1/(1+n) CPU share of the total n — the same generative story as
// load.NewUserSessions, with population structure.
func newCohorts(cohorts []Cohort, dt float64, seed int64) load.Process {
	return load.NewSequence(dt, func() func(int, float64) float64 {
		rng := rand.New(rand.NewSource(seed))
		n := make([]int, len(cohorts))
		for i, c := range cohorts {
			// Start cohorts with no ramp at their stationary mean to skip
			// burn-in; ramped cohorts start empty.
			if c.Start == 0 {
				n[i] = int(c.Lambda / c.Mu)
			}
		}
		return func(tick int, _ float64) float64 {
			t := float64(tick) * dt
			total := 0
			for i, c := range cohorts {
				pDepart := 1 - math.Exp(-c.Mu*dt)
				stay := 0
				for j := 0; j < n[i]; j++ {
					if rng.Float64() >= pDepart {
						stay++
					}
				}
				n[i] = stay + load.Poisson(rng, c.rateAt(t)*dt)
				total += n[i]
			}
			return 1 / float64(1+total)
		}
	})
}

// newFlashCrowd builds the flash-crowd process: a baseline of `users`
// competing users plus a crowd whose expected size ramps linearly from 0 to
// `crowd` over `ramp` seconds starting at `onset`, then decays
// exponentially with time constant `decay`. With repeat > 0 the episode
// recurs every `repeat` seconds. The realized crowd is a fresh Poisson draw
// around the envelope each tick; availability is the 1/(1+n) CPU share.
func newFlashCrowd(users, crowd, onset, ramp, decay, repeat, dt float64, seed int64) load.Process {
	return load.NewSequence(dt, func() func(int, float64) float64 {
		rng := rand.New(rand.NewSource(seed))
		return func(tick int, _ float64) float64 {
			t := float64(tick) * dt
			n := load.Poisson(rng, flashEnvelope(t, crowd, onset, ramp, decay, repeat))
			return 1 / (1 + users + float64(n))
		}
	})
}

// flashEnvelope is the expected crowd size at time t.
func flashEnvelope(t, crowd, onset, ramp, decay, repeat float64) float64 {
	phase := t - onset
	if repeat > 0 {
		phase = math.Mod(phase, repeat)
		if phase < 0 {
			phase += repeat
		}
	}
	switch {
	case phase < 0:
		return 0
	case phase < ramp:
		return crowd * phase / ramp
	default:
		return crowd * math.Exp(-(phase-ramp)/decay)
	}
}

// minInterval returns the finest tick among processes — the composite
// interval of every combinator, matching load.Switch's convention.
func minInterval(ps []load.Process) float64 {
	dt := ps[0].Interval()
	for _, p := range ps[1:] {
		if i := p.Interval(); i < dt {
			dt = i
		}
	}
	return dt
}

// sumProc is the weighted-sum combinator: load.Clamp01(Σ wᵢ·childᵢ(t)).
type sumProc struct {
	children []load.Process
	weights  []float64
	dt       float64
}

func (s *sumProc) At(t float64) float64 {
	v := 0.0
	for i, c := range s.children {
		v += s.weights[i] * c.At(t)
	}
	return load.Clamp01(v)
}

func (s *sumProc) Interval() float64 { return s.dt }

func (s *sumProc) Hold(t float64) {
	for _, c := range s.children {
		load.Hold(c, t)
	}
}

// modProc is the modulate combinator: the product of its children's
// availabilities — independent contention sources each claim their share of
// what the previous ones left.
type modProc struct {
	children []load.Process
	dt       float64
}

func (m *modProc) At(t float64) float64 {
	v := 1.0
	for _, c := range m.children {
		v *= c.At(t)
	}
	return load.Clamp01(v)
}

func (m *modProc) Interval() float64 { return m.dt }

func (m *modProc) Hold(t float64) {
	for _, c := range m.children {
		load.Hold(c, t)
	}
}

// clampProc bounds a child's availability to [lo, hi].
type clampProc struct {
	child  load.Process
	lo, hi float64
}

func (c *clampProc) At(t float64) float64 {
	v := c.child.At(t)
	if v < c.lo {
		return c.lo
	}
	if v > c.hi {
		return c.hi
	}
	return v
}

func (c *clampProc) Interval() float64 { return c.child.Interval() }

func (c *clampProc) Hold(t float64) { load.Hold(c.child, t) }
