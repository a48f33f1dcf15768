package nws

import (
	"fmt"
	"math"
	"sync"

	"prodpred/internal/dist"
	"prodpred/internal/modal"
	"prodpred/internal/stochastic"
)

// Component is one Gaussian component of a predictive distribution —
// the portable summary the wire layer and snapshots carry.
type Component struct {
	Weight float64 `json:"weight"`
	Mean   float64 `json:"mean"`
	Sigma  float64 `json:"sigma"`
}

// DistForecaster predicts the *distribution* of the next measurement, not
// just a point. Two of the three competitors are built around the shared
// Mix's point forecast, so every method is handed it (nil while the mix
// cannot predict) instead of re-running the battery for it.
// Implementations are scored against realized measurements by the
// Tournament, which picks the winner per series. Not safe for concurrent
// use — callers serialize exactly as for Mix.
type DistForecaster interface {
	Name() string
	// Observe absorbs a realized measurement postmortem. hist is the
	// history *before* actual, oldest first, mirroring Mix.Update, and point
	// the mix's forecast from it.
	Observe(hist []float64, point *Forecast, actual float64)
	// Quantiles writes the current predictive quantiles at probabilities ps
	// (each in (0,1)) into out, which is as long as ps. It reports false,
	// leaving out unspecified, while the forecaster cannot predict.
	Quantiles(point *Forecast, ps, out []float64) bool
	// Components summarizes the current predictive distribution as a
	// Gaussian mixture (a single component for normal forecasters). nil
	// while the forecaster cannot predict.
	Components(point *Forecast) []Component
}

// normalDist is the incumbent: the NWS mixture-of-experts point forecast
// with its postmortem RMSE read as a normal distribution — exactly the
// X ± 2σ summary the rest of the system used before distributions.
type normalDist struct{}

// NormalForecasterName tags the NWS mixture-of-experts competitor.
const NormalForecasterName = "nws-normal"

func (normalDist) Name() string { return NormalForecasterName }

// Observe is a no-op: the shared Mix is scored by Monitor.RunUntil.
func (normalDist) Observe([]float64, *Forecast, float64) {}

func (normalDist) Quantiles(point *Forecast, ps, out []float64) bool {
	if point == nil {
		return false
	}
	n := dist.Normal{Mu: point.Value, Sigma: math.Max(point.RMSE, minConservativeRMSE)}
	for i, p := range ps {
		out[i] = n.Quantile(p)
	}
	return true
}

func (normalDist) Components(point *Forecast) []Component {
	if point == nil {
		return nil
	}
	return []Component{{Weight: 1, Mean: point.Value, Sigma: math.Max(point.RMSE, minConservativeRMSE)}}
}

// Empirical-quantile competitor policy knobs.
const (
	// empiricalWindow bounds the residual window the empirical forecaster
	// reads its quantiles from.
	empiricalWindow = 64
	// empiricalMinResiduals is the least postmortem residuals before the
	// empirical forecaster reports (tail quantiles from fewer points are
	// noise).
	empiricalMinResiduals = 12
)

// EmpiricalForecasterName tags the empirical residual-quantile competitor.
const EmpiricalForecasterName = "empirical-q"

// empiricalDist predicts conditionally: the shared point forecast plus
// the empirical quantiles of its recent postmortem residuals — a
// conformal-style predictive distribution. On regime-switching series the
// residual distribution has a narrow core (within-mode rounds) and fat
// asymmetric tails (jumps), exactly the shape a symmetric normal cannot
// represent.
type empiricalDist struct {
	residuals []float64 // FIFO window of point-forecast residuals
	// sorted is the same window in sort.Float64s order, kept by Observe's
	// one removal and one insertion per round; Tournament.ImportState builds
	// it once from the imported residuals.
	sorted sortedWindow
	sorts  int // windows built whole, for the memo test
}

func (f *empiricalDist) Name() string { return EmpiricalForecasterName }

func (f *empiricalDist) Observe(hist []float64, point *Forecast, actual float64) {
	if point == nil {
		return
	}
	if len(f.residuals) >= empiricalWindow {
		f.sorted.remove(f.residuals[0])
		f.residuals = f.residuals[:copy(f.residuals, f.residuals[1:])]
	}
	r := actual - point.Value
	f.residuals = append(f.residuals, r)
	f.sorted.insert(r)
}

// setResiduals replaces the window, building its sorted form whole.
func (f *empiricalDist) setResiduals(rs []float64) {
	f.residuals = append(f.residuals[:0], rs...)
	f.sorted = f.sorted[:0]
	for _, r := range rs {
		f.sorted.insert(r)
	}
	f.sorts++
}

// sortedResiduals returns the ascending residual window; ok is false on
// insufficient postmortem data. Callers must not modify the slice.
func (f *empiricalDist) sortedResiduals() ([]float64, bool) {
	if len(f.residuals) < empiricalMinResiduals {
		return nil, false
	}
	return f.sorted, true
}

func (f *empiricalDist) Quantiles(point *Forecast, ps, out []float64) bool {
	rs, ok := f.sortedResiduals()
	if !ok || point == nil {
		return false
	}
	for i, p := range ps {
		out[i] = point.Value + sortedQuantile(rs, p)
	}
	return true
}

func (f *empiricalDist) Components(point *Forecast) []Component {
	rs, ok := f.sortedResiduals()
	if !ok || point == nil {
		return nil
	}
	rv, err := stochastic.FromSample(rs)
	if err != nil {
		return nil
	}
	return []Component{{Weight: 1, Mean: point.Value + rv.Mean, Sigma: math.Max(rv.Sigma(), minConservativeRMSE)}}
}

// sortedQuantile interpolates quantile p from an ascending sample.
func sortedQuantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// Mixture-model competitor policy knobs.
const (
	// mixtureRefitEvery is how many postmortem rounds pass between EM
	// refits; between refits the cached fit answers from its precomputed
	// quantile grid, so a round that does not refit costs O(1). Three refits
	// in four are warm (EM from the fit in hand, ~16 iterations); the one at
	// a multiple of mixtureWindow races the model orders (~56).
	mixtureRefitEvery = 16
	// mixtureWindow is how many trailing measurements each refit uses, and
	// how many rounds pass between the races that re-choose the order: one
	// race per window of data.
	mixtureWindow = 64
	// mixtureMinHist gates the first fit.
	mixtureMinHist = 24
	// mixtureKMax bounds the BIC model selection — the bursty paper
	// platform has four modes.
	mixtureKMax = 4
)

// MixtureForecasterName tags the modal/dist Gaussian-mixture competitor.
const MixtureForecasterName = "mixture-em"

// mixtureDist fits a Gaussian mixture (internal/modal) to the trailing
// window every mixtureRefitEvery rounds and predicts its unconditional
// distribution — the right shape for regime-switching multimodal series
// where point tracking chases the jumps. The first fit, and every refit at a
// multiple of mixtureWindow rounds, races the orders 1..mixtureKMax for the
// BIC pick; the refits between races restart EM from the fit in hand at its
// order. Which of the two a refit is follows from obs and modes alone, the
// two fields a snapshot carries, so a restored forecaster refits as the one
// that never stopped.
//
// The round a refit falls due on only records it (a Refit); the fit is
// installed by the first thing that needs it — the next round, a read of the
// fit, a state export — after a background Run or that reader has computed
// it. Since the fit is a pure function of what the round recorded, every
// read sees the bits the refit would have left had it run on its round.
type mixtureDist struct {
	obs     int         // postmortem rounds absorbed
	modes   []Component // installed fit; nil before the first successful fit
	qgrid   []float64   // quantiles of the installed fit at dist.GridLevels
	pending *Refit      // recorded by the last refit round, not yet installed
	count   func(RefitBy)
}

func (f *mixtureDist) Name() string { return MixtureForecasterName }

// Observe records a refit on the rounds one falls due. The round's scoring
// (Tournament.update) has installed the previous one, so the fit it warms
// from is the one in hand.
func (f *mixtureDist) Observe(hist []float64, point *Forecast, actual float64) {
	f.obs++
	if f.obs%mixtureRefitEvery != 0 || len(hist)+1 < mixtureMinHist {
		return
	}
	if len(hist) >= mixtureWindow {
		hist = hist[len(hist)-(mixtureWindow-1):]
	}
	j := &Refit{window: append(append(make([]float64, 0, len(hist)+1), hist...), actual), count: f.count}
	if f.modes != nil && f.obs%mixtureWindow != 0 {
		j.seed = f.modes // installed fits are replaced, never written
	}
	f.pending = j
}

// settle installs the pending refit, if any, running it on the caller unless
// a background Run has claimed it, in which case it waits for that run.
func (f *mixtureDist) settle(by RefitBy) {
	j := f.pending
	if j == nil {
		return
	}
	j.claim(by)
	f.pending = nil
	if j.qgrid != nil { // nil: a degenerate window; keep the previous fit
		f.modes, f.qgrid = j.modes, j.qgrid
	}
}

// RefitBy says who ran a mixture refit — the by label of the
// predict_mixture_refits_total metric.
type RefitBy uint8

const (
	// RefitBackground is a Run started after the clock step that recorded
	// the refit.
	RefitBackground RefitBy = iota
	// RefitReader is the first read that needed the fit: a report the
	// mixture leads, or a state export.
	RefitReader
	// RefitStep is the next postmortem round, when it came first: a clock
	// step that takes several rounds runs each refit on the round after it.
	RefitStep
)

var refitByNames = [...]string{"background", "reader", "step"}

func (b RefitBy) String() string { return refitByNames[b] }

// Refit is one mixture refit as the round it fell due on recorded it: that
// round's own copy of the trailing window, the fit to restart EM from (nil to
// race the orders), and who to tell when it runs. It runs exactly once —
// by Run or by the first reader that needs the fit, whichever claims it
// first; a reader that finds Run under way waits for it.
type Refit struct {
	once   sync.Once
	window []float64
	seed   []Component
	count  func(RefitBy)
	taken  bool // handed out by Monitor.TakeRefit

	// What the fit left: the modes and their quantile grid, both nil when
	// the window was degenerate.
	modes []Component
	qgrid []float64
}

// Run fits the mixture unless a reader already has. It is what a
// background goroutine calls.
func (j *Refit) Run() { j.claim(RefitBackground) }

// claim runs the fit once, whoever asks first, and waits while another
// caller runs it.
func (j *Refit) claim(by RefitBy) {
	j.once.Do(func() {
		j.fit()
		if j.count != nil {
			j.count(by)
		}
	})
}

// fit is the refit itself: EM over the recorded window and the fitted
// mixture's quantile grid.
func (j *Refit) fit() {
	var mm *modal.MixtureModel
	var err error
	if j.seed == nil {
		mm, err = modal.FitBIC(j.window, mixtureKMax)
	} else {
		from := make([]modal.Mode, len(j.seed))
		for i, c := range j.seed {
			from[i] = modal.Mode{Mean: c.Mean, Sigma: c.Sigma, Weight: c.Weight}
		}
		mm, err = modal.Refit(j.window, from)
	}
	if err != nil {
		return
	}
	modes := make([]Component, len(mm.Modes))
	for i, md := range mm.Modes {
		modes[i] = Component{Weight: md.Weight, Mean: md.Mean, Sigma: math.Max(md.Sigma, minConservativeRMSE)}
	}
	if grid := quantileGrid(modes); grid != nil {
		j.modes, j.qgrid = modes, grid
	}
}

// quantileGrid tabulates a fitted mixture's quantiles at dist.GridLevels;
// nil when the components do not make a mixture.
func quantileGrid(modes []Component) []float64 {
	mx, err := componentsMixture(modes)
	if err != nil {
		return nil
	}
	grid := make([]float64, dist.NumLevels)
	for i, p := range dist.GridLevels {
		grid[i] = mx.Quantile(p)
	}
	return grid
}

// componentsMixture rebuilds a dist.Mixture from component summaries.
func componentsMixture(modes []Component) (*dist.Mixture, error) {
	comps := make([]dist.Distribution, len(modes))
	ws := make([]float64, len(modes))
	for i, c := range modes {
		n, err := dist.NewNormal(c.Mean, math.Max(c.Sigma, minConservativeRMSE))
		if err != nil {
			return nil, err
		}
		comps[i] = n
		ws[i] = c.Weight
	}
	return dist.NewMixture(comps, ws)
}

func (f *mixtureDist) Quantiles(_ *Forecast, ps, out []float64) bool {
	f.settle(RefitReader)
	if f.modes == nil {
		return false
	}
	for i, p := range ps {
		out[i] = dist.GridQuantile(f.qgrid, p)
	}
	return true
}

func (f *mixtureDist) Components(*Forecast) []Component {
	f.settle(RefitReader)
	return f.modes
}

// Tournament policy knobs.
const (
	// tournamentDecay is the per-round exponential decay on every
	// competitor's accumulated pinball loss, so scores reflect the current
	// regime (half-life ≈ 34 rounds at 0.98) and the winner can change
	// when the series does.
	tournamentDecay = 0.98
	// tournamentMinWeight is the least decayed score mass a competitor
	// needs before it is eligible to win; below it the incumbent
	// nws-normal serves.
	tournamentMinWeight = 8.0
)

// tournamentScoreLevels are the pinball-loss quantiles each competitor is
// scored on every postmortem round. They deliberately weight the interval
// ends the serving layer reports (50–95% central bands) rather than the
// median: the tournament exists to pick the best *interval* shape, and a
// median-heavy score would always hand the win to point trackers on
// regime-switching series. They are the grid's levels but the median and the
// 0.8 interval's ends.
var tournamentScoreLevels = []float64{
	dist.GridLevels[0], dist.GridLevels[1], dist.GridLevels[3],
	dist.GridLevels[5], dist.GridLevels[7], dist.GridLevels[8],
}

// Tournament runs competing distribution forecasters over one measurement
// series, scores each postmortem by mean pinball (quantile) loss with
// exponential decay, and reports the current winner. Deterministic in
// observation order; not safe for concurrent use.
type Tournament struct {
	mix         *Mix
	forecasters []DistForecaster
	loss        []float64 // decayed cumulative pinball loss
	weight      []float64 // decayed round count (the loss normalizer)
	wins        []int64   // rounds each competitor led after scoring
	scoreQ      []float64 // a competitor's quantiles at tournamentScoreLevels
	mixture     *mixtureDist
}

// NewTournament builds the standard three-way tournament over a shared
// mix: the incumbent NWS-normal summary, the empirical residual-quantile
// forecaster, and the EM Gaussian-mixture forecaster.
func NewTournament(mix *Mix) *Tournament {
	t := &Tournament{mix: mix, mixture: &mixtureDist{}}
	t.forecasters = []DistForecaster{normalDist{}, &empiricalDist{}, t.mixture}
	t.loss = make([]float64, len(t.forecasters))
	t.weight = make([]float64, len(t.forecasters))
	t.wins = make([]int64, len(t.forecasters))
	t.scoreQ = make([]float64, len(tournamentScoreLevels))
	return t
}

// DistForecasterNames lists the competitor tags of the standard
// tournament in battery order — the label set of the
// forecaster_tournament_wins_total metric.
func DistForecasterNames() []string {
	return []string{NormalForecasterName, EmpiricalForecasterName, MixtureForecasterName}
}

// pinball is the quantile loss of predicting quantile q at level p when
// the realized value is y.
func pinball(p, q, y float64) float64 {
	if y >= q {
		return p * (y - q)
	}
	return (1 - p) * (q - y)
}

// Update runs one postmortem round: every competitor's current predictive
// quantiles are scored against the realized measurement, decayed losses are
// updated, and each competitor absorbs the measurement. Call with the
// history *before* actual, exactly like Mix.Update, and before the
// monitor's shared Mix absorbs the round.
func (t *Tournament) Update(hist []float64, actual float64) {
	var point *Forecast
	if fc, err := t.mix.Forecast(hist); err == nil {
		point = &fc
	}
	t.update(hist, point, actual)
}

// update is the round itself, given the shared mix's forecast from hist
// (nil when it has none).
func (t *Tournament) update(hist []float64, point *Forecast, actual float64) {
	t.mixture.settle(RefitStep)
	for i, f := range t.forecasters {
		t.loss[i] *= tournamentDecay
		t.weight[i] *= tournamentDecay
		if f.Quantiles(point, tournamentScoreLevels, t.scoreQ) {
			var sum float64
			for k, p := range tournamentScoreLevels {
				sum += pinball(p, t.scoreQ[k], actual)
			}
			t.loss[i] += sum / float64(len(tournamentScoreLevels))
			t.weight[i]++
		}
	}
	for _, f := range t.forecasters {
		f.Observe(hist, point, actual)
	}
	t.wins[t.leader()]++
}

// leader returns the index of the current winner: the eligible competitor
// with the lowest decayed mean pinball loss, the incumbent (index 0) when
// none is eligible; ties resolve in battery order.
func (t *Tournament) leader() int {
	best := 0
	bestLoss := math.Inf(1)
	found := false
	for i := range t.forecasters {
		if t.weight[i] < tournamentMinWeight {
			continue
		}
		l := t.loss[i] / t.weight[i]
		if !found || l < bestLoss {
			best, bestLoss, found = i, l, true
		}
	}
	if !found {
		return 0
	}
	return best
}

// Winner returns the current winning competitor and its tag.
func (t *Tournament) Winner() (DistForecaster, string) {
	f := t.forecasters[t.leader()]
	return f, f.Name()
}

// Scores reports each competitor's decayed mean pinball loss (NaN while
// unscored) keyed by tag, for diagnostics.
func (t *Tournament) Scores() map[string]float64 {
	out := make(map[string]float64, len(t.forecasters))
	for i, f := range t.forecasters {
		if t.weight[i] == 0 {
			out[f.Name()] = math.NaN()
			continue
		}
		out[f.Name()] = t.loss[i] / t.weight[i]
	}
	return out
}

// Wins reports how many scored rounds each competitor has led, in battery
// order. It is not forecaster_tournament_wins_total: that counter counts
// the load reports served per forecaster tag, fallback and prior included.
func (t *Tournament) Wins() []int64 { return t.wins }

// Names reports the competitor tags in battery order.
func (t *Tournament) Names() []string {
	out := make([]string, len(t.forecasters))
	for i, f := range t.forecasters {
		out[i] = f.Name()
	}
	return out
}

// TournamentState is the Tournament's dynamic state in portable form for
// the snapshot layer: decayed scores plus the mixture competitor's installed
// fit (the fit is a function of the window at fit time, which a restore
// cannot replay, so it is carried verbatim).
type TournamentState struct {
	Loss      []float64
	Weight    []float64
	Wins      []int64
	Residuals []float64
	FitObs    int
	FitModes  []Component
}

// ExportState copies the tournament's dynamic state, installing a pending
// refit first.
func (t *Tournament) ExportState() TournamentState {
	st := TournamentState{
		Loss:   append([]float64(nil), t.loss...),
		Weight: append([]float64(nil), t.weight...),
		Wins:   append([]int64(nil), t.wins...),
	}
	for _, f := range t.forecasters {
		switch ff := f.(type) {
		case *mixtureDist:
			ff.settle(RefitReader)
			st.FitObs = ff.obs
			st.FitModes = append([]Component(nil), ff.modes...)
		case *empiricalDist:
			st.Residuals = append([]float64(nil), ff.residuals...)
		}
	}
	return st
}

// ImportState replaces the tournament's dynamic state with st. Zero-value
// state resets the tournament: the incumbent serves until new rounds score
// the competitors.
func (t *Tournament) ImportState(st TournamentState) error {
	n := len(t.forecasters)
	if len(st.Loss) == 0 && len(st.Weight) == 0 && len(st.Wins) == 0 {
		for i := range t.forecasters {
			t.loss[i], t.weight[i], t.wins[i] = 0, 0, 0
		}
		st.Loss, st.Weight, st.Wins = nil, nil, nil
	} else if len(st.Loss) != n || len(st.Weight) != n || len(st.Wins) != n {
		return fmt.Errorf("nws: tournament state size %d/%d/%d does not match battery of %d",
			len(st.Loss), len(st.Weight), len(st.Wins), n)
	} else {
		copy(t.loss, st.Loss)
		copy(t.weight, st.Weight)
		copy(t.wins, st.Wins)
	}
	for _, f := range t.forecasters {
		switch ff := f.(type) {
		case *mixtureDist:
			ff.obs = st.FitObs
			ff.modes, ff.qgrid, ff.pending = nil, nil, nil
			if len(st.FitModes) > 0 {
				modes := append([]Component(nil), st.FitModes...)
				if grid := quantileGrid(modes); grid != nil {
					ff.modes, ff.qgrid = modes, grid
				}
			}
		case *empiricalDist:
			rs := st.Residuals
			if len(rs) > empiricalWindow {
				rs = rs[len(rs)-empiricalWindow:]
			}
			ff.setResiduals(rs)
		}
	}
	return nil
}
