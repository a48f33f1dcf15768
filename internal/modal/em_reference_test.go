package modal

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"prodpred/internal/stats"
)

// The EM fit as it stood before the kernel was rewritten for speed, kept
// verbatim (names prefixed ref) as the oracle TestFitEMMatchesReference
// compares the live FitEM and FitBIC against bit for bit. The additions are
// the refReseeds counter, so the test can tell that its collapse cases do
// collapse; the race FitBIC runs its candidates through, which is defined
// here the way the fit is: refFit takes the log-likelihood a candidate has to
// reach and carries the one abandonment line. refFitBIC passes it; refFitEM
// and refFitBICExhaustive — the selection as it stood before the race, which
// TestFitBICRaceAgainstExhaustive measures agreement against — ask for the
// fit whatever it reaches; and the warm start Refit runs, which is refFit
// handed the modes to start from in place of the k-means seed (refRefit,
// held to Refit by TestRefitMatchesReference).

var refReseeds int

var errRefAbandoned = errors.New("reference: candidate abandoned")

// FitEM fits a k-component Gaussian mixture to xs by expectation-
// maximization, initialized with 1-D k-means (which is deterministic given
// the quantile seeding used here). It returns an error for k < 1 or when
// the sample is too small or degenerate.
func refFitEM(xs []float64, k int) (*MixtureModel, error) {
	return refFit(xs, k, math.Inf(-1))
}

// refRefit is refFitEM started from the modes from, at their order.
func refRefit(xs []float64, from []Mode) (*MixtureModel, error) {
	return refFitFrom(xs, len(from), from, math.Inf(-1))
}

// refFit is refFitEM unless the fit can no longer reach the log-likelihood
// need, when it is errRefAbandoned.
func refFit(xs []float64, k int, need float64) (*MixtureModel, error) {
	return refFitFrom(xs, k, nil, need)
}

// refFitFrom is refFit started from seed's modes — sigmas floored, weights
// normalized — instead of from k-means, unless seed is nil.
func refFitFrom(xs []float64, k int, seed []Mode, need float64) (*MixtureModel, error) {
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

	var means, sigmas, weights []float64
	if seed == nil {
		means, sigmas, weights = refKmeansInit(xs, k)
	} else {
		for _, m := range seed {
			s := m.Sigma
			if s < minSigma {
				s = minSigma
			}
			means, sigmas, weights = append(means, m.Mean), append(sigmas, s), append(weights, m.Weight)
		}
		refNormalize(weights)
	}
	n := len(xs)
	resp := make([][]float64, n)
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	logW := make([]float64, k)
	logS := make([]float64, k)
	halfLog2Pi := 0.5 * math.Log(2*math.Pi)

	prevLL := math.Inf(-1)
	var ll float64
	iters := 0
	converged := false
	for iters = 1; iters <= emMaxIter; iters++ {
		// E-step with log-sum-exp for numeric safety. The parameters are
		// fixed within the step, so their logs hoist out of the n×k inner
		// loop; the expression keeps logNormalPDF's exact operation order,
		// so the fit is bit-identical to the unhoisted form.
		for j := 0; j < k; j++ {
			logW[j] = math.Log(weights[j])
			logS[j] = math.Log(sigmas[j])
		}
		ll = 0
		for i, x := range xs {
			maxLog := math.Inf(-1)
			for j := 0; j < k; j++ {
				z := (x - means[j]) / sigmas[j]
				resp[i][j] = logW[j] + (-0.5*z*z - logS[j] - halfLog2Pi)
				if resp[i][j] > maxLog {
					maxLog = resp[i][j]
				}
			}
			var sum float64
			for j := 0; j < k; j++ {
				resp[i][j] = math.Exp(resp[i][j] - maxLog)
				sum += resp[i][j]
			}
			for j := 0; j < k; j++ {
				resp[i][j] /= sum
			}
			ll += maxLog + math.Log(sum)
		}
		// M-step.
		for j := 0; j < k; j++ {
			var nj, mu float64
			for i, x := range xs {
				nj += resp[i][j]
				mu += resp[i][j] * x
			}
			if nj < minWeight*float64(n) {
				// Collapsed component: re-seed it at the sample point with
				// the worst likelihood to escape the degenerate optimum.
				means[j] = refReseedPoint(xs, means, sigmas, weights)
				sigmas[j] = (hi - lo) / float64(4*k)
				weights[j] = 1.0 / float64(n)
				continue
			}
			mu /= nj
			var v float64
			for i, x := range xs {
				d := x - mu
				v += resp[i][j] * d * d
			}
			v /= nj
			means[j] = mu
			sigmas[j] = math.Sqrt(v)
			if sigmas[j] < minSigma {
				sigmas[j] = minSigma
			}
			weights[j] = nj / float64(n)
		}
		refNormalize(weights)
		if math.Abs(ll-prevLL) < emTol*(1+math.Abs(ll)) {
			converged = true
			break
		}
		if iters >= raceMinIter && ll >= prevLL && ll+(ll-prevLL)*float64(emMaxIter-iters) < need {
			return nil, errRefAbandoned
		}
		prevLL = ll
	}

	mm := &MixtureModel{LogLikelihood: ll, Iterations: iters, Converged: converged}
	for j := 0; j < k; j++ {
		mm.Modes = append(mm.Modes, Mode{Mean: means[j], Sigma: sigmas[j], Weight: weights[j]})
	}
	sort.Slice(mm.Modes, func(a, b int) bool { return mm.Modes[a].Mean < mm.Modes[b].Mean })
	return mm, nil
}

// FitBIC fits mixtures with k = 1..kMax and returns the one minimizing BIC
// among the candidates that finish: candidate k is abandoned once, gaining on
// every remaining iteration what it just gained, it would still end with a
// BIC no better than the best so far.
func refFitBIC(xs []float64, kMax int) (*MixtureModel, error) {
	if kMax < 1 {
		return nil, errors.New("modal: kMax must be >= 1")
	}
	var best *MixtureModel
	bestBIC := math.Inf(1)
	var firstErr error
	for k := 1; k <= kMax; k++ {
		need := (float64(3*k-1)*math.Log(float64(len(xs))) - bestBIC) / 2
		mm, err := refFit(xs, k, need)
		if err == errRefAbandoned {
			continue
		}
		if err != nil {
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
		return nil, firstErr
	}
	return best, nil
}

// refFitBICExhaustive runs every candidate to the end and returns the one
// minimizing BIC.
func refFitBICExhaustive(xs []float64, kMax int) (*MixtureModel, error) {
	if kMax < 1 {
		return nil, errors.New("modal: kMax must be >= 1")
	}
	var best *MixtureModel
	bestBIC := math.Inf(1)
	var firstErr error
	for k := 1; k <= kMax; k++ {
		mm, err := refFitEM(xs, k)
		if err != nil {
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
		return nil, firstErr
	}
	return best, nil
}

// kmeansInit seeds EM with 1-D k-means initialized at evenly spaced sample
// quantiles (deterministic).
func refKmeansInit(xs []float64, k int) (means, sigmas, weights []float64) {
	means = make([]float64, k)
	for j := 0; j < k; j++ {
		q := (float64(j) + 0.5) / float64(k)
		means[j], _ = stats.Quantile(xs, q)
	}
	assign := make([]int, len(xs))
	for iter := 0; iter < 50; iter++ {
		changed := false
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
		}
		sums := make([]float64, k)
		counts := make([]float64, k)
		for i, x := range xs {
			sums[assign[i]] += x
			counts[assign[i]]++
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
	sigmas = make([]float64, k)
	weights = make([]float64, k)
	lo, _ := stats.Min(xs)
	hi, _ := stats.Max(xs)
	fallback := (hi - lo) / float64(4*k)
	if fallback < minSigma {
		fallback = minSigma
	}
	for j := 0; j < k; j++ {
		var ss, cnt float64
		for i, x := range xs {
			if assign[i] == j {
				d := x - means[j]
				ss += d * d
				cnt++
			}
		}
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
	refNormalize(weights)
	return means, sigmas, weights
}

// reseedPoint returns the sample value with the lowest mixture density,
// used to revive a collapsed EM component.
func refReseedPoint(xs []float64, means, sigmas, weights []float64) float64 {
	refReseeds++
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

func refNormalize(ws []float64) {
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
