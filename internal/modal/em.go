// Package modal analyzes multi-modal measurement data — the paper's §2.1.2.
// Production CPU load often consists of several modes (Figure 5 shows a
// tri-modal workstation load); this package detects the modes (1-D Gaussian
// mixture fitting via EM with BIC model selection), classifies observations
// into modes, computes mode-occupancy fractions P_i and burstiness metrics,
// and combines per-mode stochastic values into a single prediction
// parameter using the paper's weighted formula.
package modal

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"prodpred/internal/dist"
	"prodpred/internal/stats"
	"prodpred/internal/stochastic"
)

// Mode is one detected mode: a normal component with a mixture weight.
type Mode struct {
	Mean   float64
	Sigma  float64
	Weight float64
}

// Stochastic returns the mode's stochastic value (mean ± 2 sigma).
func (m Mode) Stochastic() stochastic.Value {
	return stochastic.FromMeanSigma(m.Mean, m.Sigma)
}

// MixtureModel is a fitted 1-D Gaussian mixture, modes sorted by ascending
// mean.
type MixtureModel struct {
	Modes         []Mode
	LogLikelihood float64
	Iterations    int
	Converged     bool
}

// K returns the number of modes.
func (mm *MixtureModel) K() int { return len(mm.Modes) }

// BIC returns the Bayesian Information Criterion of the fit on a sample of
// size n: k_params*ln(n) - 2*LL, with 3K-1 free parameters. Lower is
// better.
func (mm *MixtureModel) BIC(n int) float64 {
	k := float64(3*mm.K() - 1)
	return k*math.Log(float64(n)) - 2*mm.LogLikelihood
}

// Mixture converts the model into a dist.Mixture.
func (mm *MixtureModel) Mixture() (*dist.Mixture, error) {
	comps := make([]dist.Distribution, mm.K())
	ws := make([]float64, mm.K())
	for i, m := range mm.Modes {
		n, err := dist.NewNormal(m.Mean, m.Sigma)
		if err != nil {
			return nil, err
		}
		comps[i] = n
		ws[i] = m.Weight
	}
	return dist.NewMixture(comps, ws)
}

// Classify returns the index of the mode with the highest posterior
// responsibility for observation x.
func (mm *MixtureModel) Classify(x float64) int {
	best, bestVal := 0, math.Inf(-1)
	for i, m := range mm.Modes {
		v := math.Log(m.Weight) + logNormalPDF(x, m.Mean, m.Sigma)
		if v > bestVal {
			best, bestVal = i, v
		}
	}
	return best
}

// ClassifySeries maps each observation to its most likely mode.
func (mm *MixtureModel) ClassifySeries(xs []float64) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = mm.Classify(x)
	}
	return out
}

// Occupancy returns the empirical fraction of observations classified into
// each mode — the P_i of §2.1.2.
func (mm *MixtureModel) Occupancy(xs []float64) []float64 {
	counts := make([]float64, mm.K())
	for _, x := range xs {
		counts[mm.Classify(x)]++
	}
	if len(xs) > 0 {
		for i := range counts {
			counts[i] /= float64(len(xs))
		}
	}
	return counts
}

func logNormalPDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return -0.5*z*z - math.Log(sigma) - 0.5*math.Log(2*math.Pi)
}

const (
	emMaxIter   = 500
	raceMinIter = 10 // first iteration at which a fit may be abandoned (errAbandoned)
	emTol       = 1e-8
	minSigma    = 1e-6 // variance floor keeps components from collapsing
	minWeight   = 1e-8
	minSamples  = 8
)

// fitter is the scratch one EM fit works in. The zero value is ready to use;
// not safe for concurrent use.
type fitter struct {
	sorted []float64 // ascending copy of the sample, for the quantile seeding
	resp   []float64 // n×k responsibilities, sample i at [i*k, (i+1)*k)
	assign []int     // k-means cluster of each sample
	kbuf   []float64 // the per-component vectors, emVectors slices of k
}

// emVectors is how many per-component vectors one fit needs: means, sigmas,
// weights, their two logs, and the M-step's three accumulators (which the
// k-means seeding borrows).
const emVectors = 8

// fitters recycles the scratch between fits, so a caller that refits
// periodically (the nws mixture forecaster, once per monitor every few
// samples) allocates only the models it gets back, and the process holds as
// many workspaces as fits run at once rather than one per caller.
var fitters = sync.Pool{New: func() any { return new(fitter) }}

// FitEM fits a k-component Gaussian mixture to xs by expectation-
// maximization, initialized with 1-D k-means (which is deterministic given
// the quantile seeding used here). It returns an error for k < 1 or when
// the sample is too small or degenerate.
func FitEM(xs []float64, k int) (*MixtureModel, error) {
	f := fitters.Get().(*fitter)
	defer fitters.Put(f)
	return f.fitEM(xs, k)
}

// FitBIC fits mixtures with k = 1..kMax and returns the one minimizing BIC
// among those that finish: the candidates are raced, in ascending k, and one
// is abandoned (see errAbandoned) once it can no longer take the lead from
// the best so far. The result is always bit for bit what FitEM returns for
// its k. When no candidate's BIC is finite it returns an error, never a nil
// model.
func FitBIC(xs []float64, kMax int) (*MixtureModel, error) {
	f := fitters.Get().(*fitter)
	defer fitters.Put(f)
	return f.fitBIC(xs, kMax)
}

// Refit fits a mixture to xs by EM started from the modes from, at their
// order, instead of from k-means: the refit of a window that has moved on
// from the one from was fitted to, where the fit in hand is close to the
// answer. Sigmas are floored and weights normalized the way the kernel keeps
// its own; a mode that is not finite, or has a negative weight, is an error.
func Refit(xs []float64, from []Mode) (*MixtureModel, error) {
	if len(from) == 0 {
		return nil, errors.New("modal: Refit needs at least one mode")
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, m := range from {
		if !finite(m.Mean) || !finite(m.Sigma) || !finite(m.Weight) || m.Weight < 0 {
			return nil, fmt.Errorf("modal: invalid seed mode %+v", m)
		}
	}
	f := fitters.Get().(*fitter)
	defer fitters.Put(f)
	return f.fit(xs, len(from), from, math.Inf(-1))
}

func (f *fitter) fitEM(xs []float64, k int) (*MixtureModel, error) {
	f.sorted = append(f.sorted[:0], xs...)
	sort.Float64s(f.sorted)
	return f.fit(xs, k, nil, math.Inf(-1))
}

// errAbandoned is fit's answer for a candidate it stopped early: at some
// iteration from raceMinIter on (before it the climb out of the k-means seed
// is too irregular to extrapolate), gaining on every iteration it was still
// allowed as much log-likelihood as it had just gained, it would not have
// reached need. EM's gains shrink as it converges, so the straight line is
// generous; what it misses is a late S-shaped climb.
var errAbandoned = errors.New("modal: candidate abandoned")

// fitBIC sorts the sample once for all kMax fits, and tells each what it has
// to reach: a k-component fit takes the lead only with a BIC below the best
// so far, that is with a log-likelihood above ((3k-1)·ln n - bestBIC)/2.
// Nothing leads before the first fit that succeeds, so that one always runs
// to the end.
func (f *fitter) fitBIC(xs []float64, kMax int) (*MixtureModel, error) {
	if kMax < 1 {
		return nil, errors.New("modal: kMax must be >= 1")
	}
	f.sorted = append(f.sorted[:0], xs...)
	sort.Float64s(f.sorted)
	var best *MixtureModel
	bestBIC := math.Inf(1)
	var firstErr error
	logN := math.Log(float64(len(xs)))
	for k := 1; k <= kMax; k++ {
		mm, err := f.fit(xs, k, nil, (float64(3*k-1)*logN-bestBIC)/2)
		if err != nil {
			// errAbandoned may land here too: a candidate is abandoned only
			// against an incumbent, and with best set firstErr is not read.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if b := mm.BIC(len(xs)); b < bestBIC {
			best, bestBIC = mm, b
		}
	}
	if best == nil {
		if firstErr == nil {
			// Every fit ran, but none has a BIC below +Inf: NaN or
			// overflowing samples.
			firstErr = errors.New("modal: no candidate has a finite BIC")
		}
		return nil, firstErr
	}
	return best, nil
}

// fit is the EM kernel. It starts from seed's k modes when seed is not nil,
// and otherwise from k-means, for which f.sorted holds xs in ascending order.
// A fit that can no longer reach the log-likelihood need returns
// errAbandoned; -Inf asks for the fit whatever it reaches.
//
// Its floating-point results are pinned bit for bit by
// TestFitEMMatchesReference against the plain textbook loop, so every
// rearrangement here keeps each value's operands and each accumulator's
// summation order: responsibilities sit in one flat n×k block; the M-step
// sums run sample-outer/component-inner, which leaves every per-component
// accumulator adding its terms in sample order; divisions stay divisions;
// and the calls the E-step skips are the ones whose result is exact by
// definition — exp(0) = 1 for the component that attains the row maximum,
// log(1) = 0 and x/1 = x for a row no other component contributes to.
func (f *fitter) fit(xs []float64, k int, seed []Mode, need float64) (*MixtureModel, error) {
	if k < 1 {
		return nil, errors.New("modal: k must be >= 1")
	}
	if len(xs) < minSamples || len(xs) < 2*k {
		return nil, fmt.Errorf("modal: need at least %d samples for k=%d", max(minSamples, 2*k), k)
	}
	lo, _ := stats.Min(xs)
	hi, _ := stats.Max(xs)
	if hi == lo {
		return nil, errors.New("modal: degenerate sample")
	}

	n := len(xs)
	if cap(f.kbuf) < emVectors*k {
		f.kbuf = make([]float64, emVectors*k)
	}
	vec := func(i int) []float64 { return f.kbuf[i*k : (i+1)*k : (i+1)*k] }
	means, sigmas, weights := vec(0), vec(1), vec(2)
	logW, logS := vec(3), vec(4)
	nj, mu, vr := vec(5), vec(6), vec(7)
	if seed == nil {
		f.kmeansInit(xs, lo, hi, means, sigmas, weights, nj, mu)
	} else {
		for j, m := range seed {
			means[j], sigmas[j], weights[j] = m.Mean, math.Max(m.Sigma, minSigma), m.Weight
		}
		normalize(weights)
	}
	if cap(f.resp) < n*k {
		f.resp = make([]float64, n*k)
	}
	resp := f.resp[:n*k]
	halfLog2Pi := 0.5 * math.Log(2*math.Pi)
	collapsed := minWeight * float64(n)

	prevLL := math.Inf(-1)
	var ll float64
	iters := 0
	converged := false
	for iters = 1; iters <= emMaxIter; iters++ {
		// E-step with log-sum-exp for numeric safety. The parameters are
		// fixed within the step, so their logs hoist out of the n×k inner
		// loop; the expression keeps logNormalPDF's exact operation order.
		for j := 0; j < k; j++ {
			logW[j] = math.Log(weights[j])
			logS[j] = math.Log(sigmas[j])
		}
		ll = 0
		for i, x := range xs {
			r := resp[i*k : (i+1)*k : (i+1)*k]
			maxLog := math.Inf(-1)
			for j := range r {
				z := (x - means[j]) / sigmas[j]
				r[j] = logW[j] + (-0.5*z*z - logS[j] - halfLog2Pi)
				if r[j] > maxLog {
					maxLog = r[j]
				}
			}
			var sum float64
			for j, v := range r {
				// v-maxLog is exactly 0 for the maximum itself (and NaN, not
				// 0, when every term is -Inf), and exp(0) is exactly 1.
				e := 1.0
				if d := v - maxLog; d != 0 {
					e = math.Exp(d)
				}
				r[j] = e
				sum += e
			}
			logSum := 0.0
			if sum != 1 {
				for j := range r {
					r[j] /= sum
				}
				logSum = math.Log(sum)
			}
			ll += maxLog + logSum
		}
		// M-step, in three sweeps over the samples' rows instead of two per
		// component: weights and means, then variances around the new means,
		// then the parameter update in component order.
		for j := 0; j < k; j++ {
			nj[j], mu[j], vr[j] = 0, 0, 0
		}
		for i, x := range xs {
			for j, rj := range resp[i*k : (i+1)*k : (i+1)*k] {
				nj[j] += rj
				mu[j] += rj * x
			}
		}
		for j := 0; j < k; j++ {
			mu[j] /= nj[j]
		}
		for i, x := range xs {
			for j, rj := range resp[i*k : (i+1)*k : (i+1)*k] {
				d := x - mu[j]
				vr[j] += rj * d * d
			}
		}
		for j := 0; j < k; j++ {
			if nj[j] < collapsed {
				// Collapsed component: re-seed it at the sample point with
				// the worst likelihood to escape the degenerate optimum. The
				// density it is judged against is the partially updated one:
				// components before j already carry this step's parameters.
				means[j] = reseedPoint(xs, means, sigmas, weights)
				sigmas[j] = (hi - lo) / float64(4*k)
				weights[j] = 1.0 / float64(n)
				continue
			}
			means[j] = mu[j]
			sigmas[j] = math.Sqrt(vr[j] / nj[j])
			if sigmas[j] < minSigma {
				sigmas[j] = minSigma
			}
			weights[j] = nj[j] / float64(n)
		}
		normalize(weights)
		if math.Abs(ll-prevLL) < emTol*(1+math.Abs(ll)) {
			converged = true
			break
		}
		if iters >= raceMinIter && ll >= prevLL && ll+(ll-prevLL)*float64(emMaxIter-iters) < need {
			return nil, errAbandoned
		}
		prevLL = ll
	}

	mm := &MixtureModel{LogLikelihood: ll, Iterations: iters, Converged: converged, Modes: make([]Mode, k)}
	for j := 0; j < k; j++ {
		mm.Modes[j] = Mode{Mean: means[j], Sigma: sigmas[j], Weight: weights[j]}
	}
	sort.Slice(mm.Modes, func(a, b int) bool { return mm.Modes[a].Mean < mm.Modes[b].Mean })
	return mm, nil
}

// kmeansInit seeds EM with 1-D k-means initialized at evenly spaced sample
// quantiles (deterministic), writing the seed into means, sigmas and
// weights; sums and counts are k-vectors of scratch.
func (f *fitter) kmeansInit(xs []float64, lo, hi float64, means, sigmas, weights, sums, counts []float64) {
	k := len(means)
	for j := 0; j < k; j++ {
		means[j] = stats.QuantileSorted(f.sorted, (float64(j)+0.5)/float64(k))
	}
	if cap(f.assign) < len(xs) {
		f.assign = make([]int, len(xs))
	}
	assign := f.assign[:len(xs)]
	for i := range assign {
		assign[i] = 0
	}
	for iter := 0; iter < 50; iter++ {
		changed := false
		for j := 0; j < k; j++ {
			sums[j], counts[j] = 0, 0
		}
		for i, x := range xs {
			best, bestD := 0, math.Inf(1)
			for j, m := range means {
				d := math.Abs(x - m)
				if d < bestD {
					best, bestD = j, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
			sums[best] += x
			counts[best]++
		}
		for j := 0; j < k; j++ {
			if counts[j] > 0 {
				means[j] = sums[j] / counts[j]
			}
		}
		if !changed {
			break
		}
	}
	fallback := (hi - lo) / float64(4*k)
	if fallback < minSigma {
		fallback = minSigma
	}
	for j := 0; j < k; j++ {
		sums[j], counts[j] = 0, 0
	}
	for i, x := range xs {
		d := x - means[assign[i]]
		sums[assign[i]] += d * d
		counts[assign[i]]++
	}
	for j := 0; j < k; j++ {
		ss, cnt := sums[j], counts[j]
		if cnt > 1 && ss > 0 {
			sigmas[j] = math.Sqrt(ss / cnt)
		} else {
			sigmas[j] = fallback
		}
		if sigmas[j] < minSigma {
			sigmas[j] = minSigma
		}
		weights[j] = (cnt + 1) / float64(len(xs)+k) // Laplace smoothing
	}
	normalize(weights)
}

// reseedPoint returns the sample value with the lowest mixture density,
// used to revive a collapsed EM component.
func reseedPoint(xs []float64, means, sigmas, weights []float64) float64 {
	worst, worstD := xs[0], math.Inf(1)
	for _, x := range xs {
		d := 0.0
		for j := range means {
			d += weights[j] * math.Exp(logNormalPDF(x, means[j], sigmas[j]))
		}
		if d < worstD {
			worst, worstD = x, d
		}
	}
	return worst
}

func normalize(ws []float64) {
	var tot float64
	for _, w := range ws {
		tot += w
	}
	if tot <= 0 {
		for i := range ws {
			ws[i] = 1 / float64(len(ws))
		}
		return
	}
	for i := range ws {
		ws[i] /= tot
	}
}
