package workload

import "sort"

// The shipped scenario library. Each scenario compresses production time:
// a "day" is a few hundred virtual seconds, so diurnal structure, flash
// crowds, and regime cascades all land inside the horizons the experiments
// and the benchmark actually run. All ticks are exact binary floats so that
// recorded traces replay bit-identically (see TraceProcess).
var library = map[string]*ScenarioSpec{
	// diurnal-web: a web fleet breathing with its audience — a slow
	// daily cycle plus a sharper lunchtime harmonic, modulated by
	// session-level AR(1) jitter. Machines are phase-staggered the way
	// geographically split clusters are.
	"diurnal-web": {
		Version: SpecVersion,
		Name:    "diurnal-web",
		Machines: []LoadSpec{
			diurnalWebMachine(0),
			diurnalWebMachine(1.6),
			diurnalWebMachine(3.1),
			diurnalWebMachine(4.7),
		},
		Net: &LoadSpec{Kind: "ethernet-contention"},
	},

	// flash-crowd: quiet machines hit by a recurring stampede — a sharp
	// linear onset, exponential cool-down, recurring every 900 virtual
	// seconds with onsets staggered across machines (a rolling page-push).
	"flash-crowd": {
		Version: SpecVersion,
		Name:    "flash-crowd",
		Machines: []LoadSpec{
			{Kind: "flash-crowd", Users: 0.4, Crowd: 5, Onset: 240, Ramp: 45, Decay: 150, Repeat: 900},
			{Kind: "flash-crowd", Users: 0.6, Crowd: 7, Onset: 420, Ramp: 30, Decay: 180, Repeat: 900},
			{Kind: "flash-crowd", Users: 0.3, Crowd: 4, Onset: 600, Ramp: 60, Decay: 120, Repeat: 900},
			{Kind: "flash-crowd", Users: 0.5, Crowd: 6, Onset: 330, Ramp: 40, Decay: 160, Repeat: 900},
		},
		Net: &LoadSpec{Kind: "ethernet-contention"},
	},

	// heavy-tail-batch: batch machines whose availability clusters near a
	// ceiling with long-tailed congestion drops (the Figure 3 shape,
	// pushed harder), one machine strictly two-regime congested.
	"heavy-tail-batch": {
		Version: SpecVersion,
		Name:    "heavy-tail-batch",
		Machines: []LoadSpec{
			{Kind: "long-tailed", Peak: 0.85, DropMean: 0.12, DropStd: 0.10},
			{Kind: "congested", Peak: 0.80, BaseMean: 0.08, BaseStd: 0.03, BurstProb: 0.12, BurstMean: 0.45, BurstStd: 0.08},
			{Kind: "long-tailed", Peak: 0.90, DropMean: 0.18, DropStd: 0.15},
			{Kind: "congested", Peak: 0.75, BaseMean: 0.06, BaseStd: 0.02, BurstProb: 0.08, BurstMean: 0.40, BurstStd: 0.06},
		},
		Net: &LoadSpec{
			Kind: "congested",
			Peak: 0.62, BaseMean: 0.08, BaseStd: 0.025,
			BurstProb: 0.18, BurstMean: 0.30, BurstStd: 0.05,
		},
	},

	// cohort-mix: three user populations per machine — office workers on
	// the day cycle, an international cohort half a day out of phase, and
	// an overnight batch crew that ramps in late — all sharing the CPU.
	"cohort-mix": {
		Version: SpecVersion,
		Name:    "cohort-mix",
		Machines: []LoadSpec{
			cohortMixMachine(0),
			cohortMixMachine(1.5),
			cohortMixMachine(3.0),
			cohortMixMachine(4.5),
		},
		Net: &LoadSpec{Kind: "ethernet-contention"},
	},

	// regime-cascade: machines that change character mid-run — steady
	// center-mode, then a flash crowd, then bursty four-mode switching —
	// the drift detector's nightmare schedule, staggered per machine.
	"regime-cascade": {
		Version: SpecVersion,
		Name:    "regime-cascade",
		Machines: []LoadSpec{
			cascadeMachine(500, 1100),
			cascadeMachine(650, 1250),
			cascadeMachine(800, 1400),
			cascadeMachine(950, 1550),
		},
		Net: &LoadSpec{Kind: "ethernet-contention"},
	},

	// quiet-baseline: lightly loaded machines with a faint diurnal
	// breath and a gentle clamp keeping availability high — the control
	// scenario every other one is judged against.
	"quiet-baseline": {
		Version: SpecVersion,
		Name:    "quiet-baseline",
		Machines: []LoadSpec{
			quietMachine(0),
			quietMachine(0.9),
			quietMachine(1.8),
			quietMachine(2.7),
		},
	},
}

// diurnalWebMachine is one phase-staggered diurnal-web component: a daily
// cycle (period 720 s compressed) and a lunch harmonic (period 240 s),
// modulated by single-mode jitter.
func diurnalWebMachine(phase float64) LoadSpec {
	return LoadSpec{
		Kind: "modulate",
		Children: []LoadSpec{
			{
				Kind: "diurnal",
				Base: 0.62,
				Cycles: []Cycle{
					{Period: 720, Amp: 0.25, Phase: phase},
					{Period: 240, Amp: 0.08, Phase: phase * 1.3},
				},
			},
			{Kind: "single-mode", Mean: 0.92, Sigma: 0.03, Phi: 0.85},
		},
	}
}

// cohortMixMachine is one cohort-mix component with the phase shifting the
// office and international populations' day cycles.
func cohortMixMachine(phase float64) LoadSpec {
	return LoadSpec{
		Kind: "cohorts",
		Cohorts: []Cohort{
			{Lambda: 0.030, Mu: 0.020, Period: 720, Swing: 0.8, Phase: phase},             // office workers
			{Lambda: 0.020, Mu: 0.015, Period: 720, Swing: 0.8, Phase: phase + 3.14159},   // international, half a day out
			{Lambda: 0.012, Mu: 0.010, Start: 400, Period: 720, Swing: 0.4, Phase: phase}, // overnight batch ramp
		},
	}
}

// cascadeMachine is one regime-cascade component: steady until t1, a flash
// crowd regime until t2, bursty four-mode switching after.
func cascadeMachine(t1, t2 float64) LoadSpec {
	return LoadSpec{
		Kind: "switch",
		At:   []float64{t1, t2},
		Children: []LoadSpec{
			{Kind: "platform1-center"},
			{Kind: "flash-crowd", Users: 0.5, Crowd: 6, Onset: t1, Ramp: 40, Decay: 180},
			{Kind: "platform2-bursty"},
		},
	}
}

// quietMachine is one quiet-baseline component: light load with a faint
// diurnal breath, clamped to stay comfortably available.
func quietMachine(phase float64) LoadSpec {
	return LoadSpec{
		Kind: "clamp",
		Lo:   0.55,
		Hi:   0.99,
		Children: []LoadSpec{
			{
				Kind: "modulate",
				Children: []LoadSpec{
					{Kind: "diurnal", Base: 0.97, Cycles: []Cycle{{Period: 600, Amp: 0.05, Phase: phase}}},
					{Kind: "light"},
				},
			},
		},
	}
}

// Lookup returns the named library scenario and whether it exists. The
// spec is the library's own, shared by every caller: read-only.
func Lookup(name string) (*ScenarioSpec, bool) {
	sc, ok := library[name]
	return sc, ok
}

// Names lists the library scenarios in sorted order.
func Names() []string {
	out := make([]string, 0, len(library))
	for name := range library {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
