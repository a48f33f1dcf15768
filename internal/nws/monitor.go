package nws

import (
	"errors"
	"math"

	"prodpred/internal/simenv"
	"prodpred/internal/stats"
	"prodpred/internal/stochastic"
	"prodpred/internal/timeseries"
)

// DefaultPeriod is the paper's sensor cadence: measurements and variance
// reports every 5 seconds.
const DefaultPeriod = 5.0

// Retry and degradation policy. Backoff is in virtual time and the retry
// schedule stays strictly inside one period so a recovered tick never
// collides with the next scheduled sample.
const (
	// maxRetries is how many backoff retries a transient error gets before
	// the tick is abandoned as a gap.
	maxRetries = 3
	// staleLimit is the staleness (in periods) beyond which the forecaster
	// mix is no longer trusted and RobustReport falls back to the running
	// mean of the surviving history.
	staleLimit = 8
)

// DegradeRate widens a monitor's reported interval per period of
// staleness: spread is multiplied by StalenessFactor(stale) =
// 1 + DegradeRate·stale. This is the single source of truth for
// staleness widening — monitor reports, the predictd diagnostics, and the
// online calibrator (internal/calib) all compose against this one factor.
// The calibrator's conformal multiplier applies on top of it, so a stale
// sensor and an under-covering model widen independently and
// multiplicatively.
const DegradeRate = 0.25

// StalenessFactor returns the spread multiplier for a given staleness in
// sensor periods: 1 on a healthy stream, 1 + DegradeRate·stale otherwise.
func StalenessFactor(stale float64) float64 { return 1 + DegradeRate*stale }

// GapStats counts per-fault-class sensor outcomes, for diagnostics and for
// the robustness experiments. Missed is the total of scheduled samples that
// produced no measurement (Dropped + Outage + TransientLost + SensorErrors).
type GapStats struct {
	Clean         int `json:"clean"`          // samples recorded without incident
	Recovered     int `json:"recovered"`      // samples recorded after one or more transient retries
	Retries       int `json:"retries"`        // transient retries performed (in virtual time)
	Dropped       int `json:"dropped"`        // samples lost to drops
	Outage        int `json:"outage"`         // samples lost inside outage windows
	TransientLost int `json:"transient_lost"` // samples lost after exhausting retries
	SensorErrors  int `json:"sensor_errors"`  // samples lost to unclassified sensor errors
	Missed        int `json:"missed"`         // total scheduled samples not recorded
	LongestGap    int `json:"longest_gap"`    // longest run of consecutive missed samples
}

// Recorded returns the number of samples that produced a measurement.
func (g GapStats) Recorded() int { return g.Clean + g.Recovered }

// Scheduled returns the number of sample ticks attempted.
func (g GapStats) Scheduled() int { return g.Recorded() + g.Missed }

// Monitor drives a sensor over a simulated environment at a fixed period,
// keeps a bounded history, scores the forecaster mix postmortem after every
// new measurement, and reports stochastic forecasts on demand.
//
// The monitor is gap-aware: a failing sensor never aborts the measurement
// stream. Transient errors are retried with backoff in virtual time;
// dropped samples and outage windows are skipped and recorded in GapStats;
// and the reported interval widens as the last good measurement ages,
// recovering to normal confidence as fresh samples refill the history.
// Not safe for concurrent use.
type Monitor struct {
	measure Sensor
	period  float64
	ring    *timeseries.Ring
	mix     *Mix
	tour    *Tournament // nil on a monitor that is only ever read as X ± a
	nextT   float64
	started bool

	stats  GapStats
	curGap int     // consecutive missed samples in the current gap
	stale  float64 // effective staleness in periods (rises on miss, decays on success)

	// agg is what the battery keeps of the ring, advanced by every recorded
	// sample and rebuilt by ImportState, so that no read walks the ring.
	agg *aggregate

	// The memo: what has already been derived from the current state. The
	// battery's predictions, read off agg, and the mix forecast picked from
	// them are a function of the ring and the mix scores, which only a
	// recorded sample (or ImportState) changes; they serve every report of
	// this ring and then the next sample's postmortems, so each ring state is
	// read once. Staleness is applied to the forecast on the way out, never
	// stored.
	swept    bool
	preds    sweep
	point    Forecast
	pointErr error
}

// NewCPUMonitor returns a monitor of machine m's CPU availability in env.
func NewCPUMonitor(env *simenv.Env, m int, period float64, histSize int) (*Monitor, error) {
	s, err := CPUSensor(env, m)
	if err != nil {
		return nil, err
	}
	return NewSensorMonitor(s, period, histSize)
}

// NewBandwidthMonitor returns a monitor of achieved bandwidth (bytes/s)
// between machines i and j in env, probing with probeBytes messages.
//
// It carries no distribution tournament: bandwidth is consumed as X ± a
// only (the structural model takes the mix forecast, and the quantile grid
// draws bandwidth from that normal), so nothing would read one.
// Tournament() is nil and RobustDistReport serves the incumbent normal.
func NewBandwidthMonitor(env *simenv.Env, i, j int, probeBytes, period float64, histSize int) (*Monitor, error) {
	s, err := BandwidthSensor(env, i, j, probeBytes)
	if err != nil {
		return nil, err
	}
	return newMonitor(s, period, histSize)
}

// NewSensorMonitor returns a monitor over an arbitrary sensor — the
// constructor fault-injection wrappers and custom sensors use.
func NewSensorMonitor(sensor Sensor, period float64, histSize int) (*Monitor, error) {
	m, err := newMonitor(sensor, period, histSize)
	if err != nil {
		return nil, err
	}
	m.tour = NewTournament(m.mix)
	return m, nil
}

// newMonitor builds a monitor without a tournament.
func newMonitor(sensor Sensor, period float64, histSize int) (*Monitor, error) {
	if sensor == nil {
		return nil, errors.New("nws: nil sensor")
	}
	if !(period > 0) {
		return nil, errors.New("nws: period must be positive")
	}
	ring, err := timeseries.NewRing(histSize)
	if err != nil {
		return nil, err
	}
	mix := NewMix(nil)
	return &Monitor{measure: sensor, period: period, ring: ring, mix: mix, agg: mix.newAggregate(histSize), preds: mix.newSweep()}, nil
}

// Period returns the sensor period in seconds.
func (m *Monitor) Period() float64 { return m.period }

// RunUntil takes all measurements due up to and including virtual time t.
// It is idempotent: calling it twice with the same t takes no extra
// measurements. Sensor failures never abort the stream — they are retried
// (transient), or skipped and recorded in Gaps(); the returned error is
// always nil and retained only for interface stability.
func (m *Monitor) RunUntil(t float64) error {
	if !m.started {
		m.started = true
		m.nextT = 0
	}
	for m.nextT <= t {
		v, err := m.sample(m.nextT)
		if err != nil {
			m.recordMiss(err)
		} else {
			hist := m.ring.View()
			if len(hist) > 0 {
				// Score the distribution tournament against the same
				// postmortem round before the shared mix absorbs it, so
				// every competitor is judged on the pre-update state.
				point, _ := m.forecast()
				if m.tour != nil {
					m.tour.update(hist, point, v)
				}
				m.mix.score(&m.preds, v)
			}
			m.agg.push(hist, v)
			m.ring.Push(m.nextT, v)
			m.swept = false
			m.curGap = 0
			m.stale = math.Max(0, m.stale-1)
		}
		m.nextT += m.period
	}
	return nil
}

// forecast returns the mix forecast from the current ring, reading the
// battery off the aggregate if this ring state has not been read yet. The
// ring must not be empty. The pointer is into the memo, valid until the next
// sample; it is nil when the mix has no forecast, which is what err then
// says.
func (m *Monitor) forecast() (*Forecast, error) {
	if !m.swept {
		hist := m.ring.View()
		m.agg.sweep(hist, &m.preds)
		m.point, m.pointErr = m.mix.pick(&m.preds, hist)
		m.swept = true
	}
	if m.pointErr != nil {
		return nil, m.pointErr
	}
	return &m.point, nil
}

// sample reads the sensor at tick time t, retrying transient errors with
// linear backoff in virtual time (t + period/8, t + 2·period/8, ...; the
// whole schedule stays inside one period). A retry that fails
// non-transiently reports that failure class.
func (m *Monitor) sample(t float64) (float64, error) {
	v, err := m.measure(t)
	if err == nil {
		m.stats.Clean++
		return v, nil
	}
	if !IsTransient(err) {
		return v, err
	}
	backoff := m.period / 8
	for attempt := 1; attempt <= maxRetries; attempt++ {
		m.stats.Retries++
		v, err = m.measure(t + float64(attempt)*backoff)
		if err == nil {
			m.stats.Recovered++
			return v, nil
		}
		if !IsTransient(err) {
			return v, err
		}
	}
	return v, err
}

// recordMiss classifies and counts a scheduled sample that produced no
// measurement, and advances the staleness clock.
func (m *Monitor) recordMiss(err error) {
	switch {
	case errors.Is(err, ErrSampleDropped):
		m.stats.Dropped++
	case errors.Is(err, ErrOutage):
		m.stats.Outage++
	case IsTransient(err):
		m.stats.TransientLost++
	default:
		m.stats.SensorErrors++
	}
	m.stats.Missed++
	m.curGap++
	if m.curGap > m.stats.LongestGap {
		m.stats.LongestGap = m.curGap
	}
	m.stale++
}

// Gaps returns the per-fault-class sensor counters accumulated so far.
func (m *Monitor) Gaps() GapStats { return m.stats }

// Staleness returns the current effective staleness in periods: it rises by
// one per missed sample and decays by one per recorded sample, so it is
// zero on a healthy stream and the degradation factor is 1 there.
func (m *Monitor) Staleness() float64 { return m.stale }

// DegradationFactor returns the multiplier currently applied to the
// reported spread: 1 on a healthy stream, growing with staleness.
func (m *Monitor) DegradationFactor() float64 { return StalenessFactor(m.stale) }

// Len returns the number of stored measurements.
func (m *Monitor) Len() int { return m.ring.Len() }

// History returns a copy of the stored measurement values, oldest first.
func (m *Monitor) History() []float64 { return m.ring.Values() }

// Last returns the most recent measurement; ok is false before the first
// successful sample.
func (m *Monitor) Last() (timeseries.Point, bool) { return m.ring.Last() }

// Forecast reports the NWS prediction from the current history. The error
// estimate is widened by the staleness degradation factor, so intervals
// grow while the sensor is dark and shrink back as the history refills.
func (m *Monitor) Forecast() (Forecast, error) {
	if m.ring.Len() == 0 {
		return Forecast{}, errors.New("nws: no measurements yet")
	}
	point, err := m.forecast()
	if err != nil {
		return Forecast{}, err
	}
	f := *point
	if m.stale > 0 && f.RMSE < minConservativeRMSE {
		// A perfectly-scoring forecaster earns a zero RMSE, but staleness
		// must still widen the interval — floor it so the degradation
		// factor has something to act on.
		f.RMSE = minConservativeRMSE
	}
	f.RMSE *= m.DegradationFactor()
	return f, nil
}

// Report runs the monitor to time t and returns the stochastic forecast —
// the one-call form the prediction pipeline uses: "a value generated by the
// Network Weather Service at runtime" (§2.1.2). It fails only when no
// measurement has ever succeeded; use RobustReport for a total fallback.
func (m *Monitor) Report(t float64) (stochastic.Value, error) {
	if err := m.RunUntil(t); err != nil {
		return stochastic.Value{}, err
	}
	f, err := m.Forecast()
	if err != nil {
		return stochastic.Value{}, err
	}
	return f.Stochastic(), nil
}

// RobustReport runs the monitor to time t and always returns a usable
// stochastic value, degrading gracefully:
//
//  1. fresh enough history (staleness <= staleLimit periods): the normal
//     mix forecast, spread widened by the staleness factor;
//  2. stale history or a failed mix: the running mean of the surviving
//     history with a conservative, staleness-widened spread;
//  3. no history at all: the caller-supplied prior.
func (m *Monitor) RobustReport(t float64, prior stochastic.Value) stochastic.Value {
	_ = m.RunUntil(t)
	if m.ring.Len() == 0 {
		return prior
	}
	if m.stale <= staleLimit {
		if f, err := m.Forecast(); err == nil {
			return f.Stochastic()
		}
	}
	mean, sigma := m.runningMean()
	return stochastic.FromMeanSigma(mean, sigma*m.DegradationFactor())
}

// runningMean is the fallback report of a history the mix is not trusted
// on: its mean, with a conservative sigma before staleness widening.
func (m *Monitor) runningMean() (mean, sigma float64) {
	mean, std := stats.MeanStd(m.ring.View())
	sigma = math.Max(std, 0.1*math.Abs(mean))
	if sigma < minConservativeRMSE {
		sigma = minConservativeRMSE
	}
	return mean, sigma
}

// Mix exposes the forecaster mix for diagnostics. The monitor's memo
// assumes only RunUntil and ImportState change the mix's scores.
func (m *Monitor) Mix() *Mix { return m.mix }

// Tournament exposes the distribution-forecaster tournament for
// diagnostics and snapshots; nil on a monitor built without one
// (NewBandwidthMonitor).
func (m *Monitor) Tournament() *Tournament { return m.tour }

// TakeRefit hands out the mixture refit the monitor's last round left
// pending, once: nil when there is none or it was handed out before. The
// caller starts it (Refit.Run) once it has finished stepping — never while
// it steps, where it would compete with the step's own work. A refit nobody
// starts is run by the first round or read that needs it.
func (m *Monitor) TakeRefit() *Refit {
	if m.tour == nil {
		return nil
	}
	j := m.tour.mixture.pending
	if j == nil || j.taken {
		return nil
	}
	j.taken = true
	return j
}

// CountRefits has fn told who ran each mixture refit recorded from now on;
// fn may be called from any goroutine.
func (m *Monitor) CountRefits(fn func(RefitBy)) {
	if m.tour != nil {
		m.tour.mixture.count = fn
	}
}
