package load

import (
	"errors"
	"math/rand"

	"prodpred/internal/dist"
)

// NewLongTailed returns an availability process with a left long tail:
// values cluster near a peak and occasionally drop far below it. This
// reproduces the shape of the paper's measured ethernet bandwidth (Figure
// 3): a threshold near the achievable maximum with a long tail of congested
// samples, and a median above the mean.
//
// The process emits Clamp01(peak - D) per tick, where D is a lognormal
// congestion drop. peak is the availability ceiling in (0,1]; dropMean and
// dropStd are the linear-space moments of the lognormal drop (both > 0).
func NewLongTailed(peak, dropMean, dropStd, dt float64, seed int64) (*Sequence, error) {
	if !(peak > 0) || peak > 1 {
		return nil, errors.New("load: peak must be in (0,1]")
	}
	ln, err := dist.LogNormalFromMoments(dropMean, dropStd)
	if err != nil {
		return nil, err
	}
	if !(dt > 0) {
		return nil, errors.New("load: dt must be positive")
	}
	return NewSequence(dt, func() func(int, float64) float64 {
		rng := rand.New(rand.NewSource(seed))
		return func(int, float64) float64 {
			return Clamp01(peak - ln.Sample(rng))
		}
	}), nil
}

// NewCongested returns a two-regime availability process: most ticks see a
// small lognormal drop below the peak, but with probability burstProb a
// tick is a congestion episode with a much larger drop. The episode cluster
// sits beyond the 2-sigma band of the overall sample, which is what
// produces the paper's §2.1.1 observation that a normal summary covers ~91%
// rather than 95% of long-tailed bandwidth data. peak is the availability
// ceiling in (0,1]; base and burst give the linear-space (mean, std) of the
// two drop regimes; burstProb in [0,1] is the per-tick episode probability.
func NewCongested(peak float64, baseMean, baseStd, burstProb, burstMean, burstStd, dt float64, seed int64) (*Sequence, error) {
	if !(peak > 0) || peak > 1 {
		return nil, errors.New("load: peak must be in (0,1]")
	}
	if burstProb < 0 || burstProb > 1 {
		return nil, errors.New("load: burstProb must be in [0,1]")
	}
	base, err := dist.LogNormalFromMoments(baseMean, baseStd)
	if err != nil {
		return nil, err
	}
	burst, err := dist.LogNormalFromMoments(burstMean, burstStd)
	if err != nil {
		return nil, err
	}
	if !(dt > 0) {
		return nil, errors.New("load: dt must be positive")
	}
	return NewSequence(dt, func() func(int, float64) float64 {
		rng := rand.New(rand.NewSource(seed))
		return func(int, float64) float64 {
			d := base.Sample(rng)
			if rng.Float64() < burstProb {
				d = burst.Sample(rng)
			}
			return Clamp01(peak - d)
		}
	}), nil
}

// EthernetContention returns the bandwidth-availability process calibrated
// to Figure 3: on a 10 Mbit/s ethernet the measured bandwidth histogram has
// its threshold near 6.2 Mbit/s (the protocol ceiling), mean ~5.25 Mbit/s,
// a long left tail of congestion episodes, and ~91% of samples within the
// 2-sigma normal summary.
func EthernetContention(seed int64) (*Sequence, error) {
	return NewCongested(0.62, 0.08, 0.025, 0.10, 0.26, 0.035, 1.0, seed)
}
