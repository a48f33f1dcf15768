package load

// Presets reproducing the statistical shape of the paper's measured load.

// platform1Modes are Platform1TriModal's modes.
var platform1Modes = []ModeSpec{
	{Mean: 0.33, Sigma: 0.02},
	{Mean: 0.48, Sigma: 0.025}, // center mode: 0.48 ± 0.05 at 2 sigma
	{Mean: 0.94, Sigma: 0.015},
}

// platform2Modes are Platform2FourModeBursty's modes.
var platform2Modes = []ModeSpec{
	{Mean: 0.12, Sigma: 0.03},
	{Mean: 0.35, Sigma: 0.04},
	{Mean: 0.62, Sigma: 0.04},
	{Mean: 0.90, Sigma: 0.03},
}

// Platform1TriModal returns the tri-modal load of the paper's Figure 5: a
// mode near 0.33, a mode near 0.49 (the "center mode" used in §3.1), and a
// mode near 0.94, with slow switching so executions typically stay within a
// single mode (Figure 8).
func Platform1TriModal(seed int64) (*Sequence, error) {
	return NewMarkovModal(
		platform1Modes,
		[]float64{0.25, 0.45, 0.30},
		0.002, // expected dwell ~500 ticks: mode rarely changes mid-run
		0.9,
		1.0,
		seed,
	)
}

// Platform1CenterMode returns just the center mode of Platform 1 as a
// single-mode process — the regime of the paper's first experiment, where
// "the load of the (consistently) slowest machine ... was in the center
// mode, with a mean of 0.48" and stochastic value 0.48 ± 0.05.
func Platform1CenterMode(seed int64) (*Sequence, error) {
	return NewSingleMode(0.48, 0.025, 0.9, 1.0, seed)
}

// Platform2FourModeBursty returns the 4-modal bursty load of Figures 10-11:
// four modes spanning the availability range with fast, unpredictable
// switching.
func Platform2FourModeBursty(seed int64) (*Sequence, error) {
	return NewMarkovModal(
		platform2Modes,
		[]float64{0.2, 0.3, 0.3, 0.2},
		0.08, // expected dwell ~12 ticks: bursty
		0.7,
		1.0,
		seed,
	)
}

// LightLoad returns a mildly loaded machine (availability ~0.9) for
// dedicated-ish scenarios with small perturbations.
func LightLoad(seed int64) (*Sequence, error) {
	return NewSingleMode(0.92, 0.015, 0.8, 1.0, seed)
}
