// Package timeseries provides timestamped measurement series: append-only
// series and bounded ring-buffer histories (the storage behind the NWS
// sensors).
//
// Time is virtual simulation time in float64 seconds, matching the
// discrete-event clock in internal/simenv; nothing here touches wall-clock
// time.
package timeseries

import (
	"errors"
	"fmt"
	"sort"
)

// Point is one timestamped measurement.
type Point struct {
	T float64 // seconds of virtual time
	V float64
}

// Series is an append-only measurement series ordered by time.
type Series struct {
	pts []Point
}

// NewSeries returns an empty series with the given capacity hint.
func NewSeries(capHint int) *Series {
	if capHint < 0 {
		capHint = 0
	}
	return &Series{pts: make([]Point, 0, capHint)}
}

// FromSlices builds a series from parallel time/value slices, which must be
// equal-length and time-ordered.
func FromSlices(ts, vs []float64) (*Series, error) {
	if len(ts) != len(vs) {
		return nil, errors.New("timeseries: slice length mismatch")
	}
	s := NewSeries(len(ts))
	for i := range ts {
		if err := s.Append(ts[i], vs[i]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Append adds a measurement; timestamps must be non-decreasing.
func (s *Series) Append(t, v float64) error {
	if n := len(s.pts); n > 0 && t < s.pts[n-1].T {
		return fmt.Errorf("timeseries: non-monotonic timestamp %g after %g", t, s.pts[n-1].T)
	}
	s.pts = append(s.pts, Point{T: t, V: v})
	return nil
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.pts) }

// At returns the i-th point.
func (s *Series) At(i int) Point { return s.pts[i] }

// Values returns a copy of the measurement values in time order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.pts))
	for i, p := range s.pts {
		out[i] = p.V
	}
	return out
}

// Times returns a copy of the timestamps in order.
func (s *Series) Times() []float64 {
	out := make([]float64, len(s.pts))
	for i, p := range s.pts {
		out[i] = p.T
	}
	return out
}

// ValueAt returns the measurement in force at time t: the value of the
// latest point with timestamp <= t. ok is false before the first point.
func (s *Series) ValueAt(t float64) (v float64, ok bool) {
	i := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T > t })
	if i == 0 {
		return 0, false
	}
	return s.pts[i-1].V, true
}

// Ring is a bounded measurement history that discards the oldest point when
// full — the storage discipline of an NWS sensor.
//
// Times and values live in two parallel buffers a little longer than the
// ring, and the stored points are always one contiguous window of them: a
// push writes behind the window, and when the window reaches the end of the
// buffers it is moved back to the front (one copy every ringSlack pushes).
// That is what lets View hand out the values without copying them.
//
// The buffers start small and double each time the window is moved, up to
// size + ringSlack(size), so a ring holds memory for what it was pushed,
// not for what it could hold; once they are at full length, a move is a
// copy to the front and nothing more.
type Ring struct {
	size   int
	ts, vs []float64 // points are ts/vs[start : start+n]
	start  int
	n      int
}

// ringSlack is how many pushes a full ring of the given size absorbs between
// two moves of its window.
func ringSlack(size int) int { return size/8 + 1 }

// ringFirstBuf is the buffer length a new ring starts with (or its full
// length, when that is shorter).
const ringFirstBuf = 8

// NewRing returns a ring holding at most size points; size must be positive.
func NewRing(size int) (*Ring, error) {
	if size <= 0 {
		return nil, errors.New("timeseries: ring size must be positive")
	}
	r := &Ring{size: size}
	r.alloc(min(ringFirstBuf, size+ringSlack(size)))
	return r, nil
}

// alloc gives the ring fresh buffers of length l; the caller copies the
// window over.
func (r *Ring) alloc(l int) {
	buf := make([]float64, 2*l)
	r.ts, r.vs = buf[:l:l], buf[l:]
}

// Push appends a measurement, evicting the oldest if the ring is full.
func (r *Ring) Push(t, v float64) {
	if r.n == r.size {
		r.start++
		r.n--
	}
	end := r.start + r.n
	if end == len(r.vs) {
		ts, vs := r.ts, r.vs
		if full := r.size + ringSlack(r.size); len(vs) < full {
			r.alloc(min(2*len(vs), full))
		}
		copy(r.ts, ts[r.start:end])
		copy(r.vs, vs[r.start:end])
		r.start, end = 0, r.n
	}
	r.ts[end], r.vs[end] = t, v
	r.n++
}

// Len returns the number of stored points.
func (r *Ring) Len() int { return r.n }

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return r.size }

// At returns the i-th stored point, oldest first.
func (r *Ring) At(i int) Point {
	return Point{T: r.ts[r.start+i], V: r.vs[r.start+i]}
}

// Last returns the most recent point; ok is false when empty.
func (r *Ring) Last() (Point, bool) {
	if r.n == 0 {
		return Point{}, false
	}
	return r.At(r.n - 1), true
}

// View returns the stored values oldest-first without copying them. The
// slice aliases the ring's storage: it is valid until the next Push and
// must not be modified.
func (r *Ring) View() []float64 {
	return r.vs[r.start : r.start+r.n : r.start+r.n]
}

// Values returns a copy of the stored values oldest-first.
func (r *Ring) Values() []float64 {
	return append(make([]float64, 0, r.n), r.View()...)
}
