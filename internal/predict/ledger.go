package predict

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"prodpred/internal/calib"
	"prodpred/internal/dist"
	"prodpred/internal/stochastic"
)

// maxOutstanding bounds how many issued-but-unobserved predictions a
// service remembers for the Observe path; beyond it the oldest are evicted
// (a caller that never observes must not grow the service without bound).
const maxOutstanding = 4096

// rawGrid is one prediction's uncalibrated quantile grid, on dist.GridLevels.
type rawGrid = [dist.NumLevels]float64

// ledgerEntry is what Observe and a snapshot need of one issued
// prediction, in 48 bytes. The calibration overlay never moves the mean
// (calib.Tracker.Overlay), so the calibrated value is raw.Mean ±
// calSpread. rawQ is the grid the prediction carried (its Dist.Raw, never
// mutated) for the quantile calibrator to score the realized runtime
// against, nil when it asked for none.
type ledgerEntry struct {
	id        uint64
	raw       stochastic.Value
	calSpread float64
	rawQ      *rawGrid
	dead      bool
}

// grid returns e's raw grid as a slice, nil when it has none.
func (e *ledgerEntry) grid() []float64 {
	if e.rawQ == nil {
		return nil
	}
	return e.rawQ[:]
}

// outcome is the calib.Outcome of e's prediction answered by actual at
// virtual time now.
func (e *ledgerEntry) outcome(now, actual float64) calib.Outcome {
	return calib.Outcome{
		ID:           e.id,
		Time:         now,
		Raw:          e.raw,
		Calibrated:   stochastic.Value{Mean: e.raw.Mean, Spread: e.calSpread},
		Actual:       actual,
		RawQuantiles: e.grid(),
	}
}

// ledger holds a service's issued-but-unobserved predictions in one slice
// in ascending ID order, which is issue order. An observed, discarded or
// evicted entry is marked dead where it lies; the dead entries at the front
// are dropped as they appear, and the rest are compacted away once they
// outnumber the live ones, so slab[head:] is never longer than twice the
// live count.
type ledger struct {
	// slab[head:] are the entries kept; slab[head] is the oldest live one
	// (head == len(slab) == 0 when none is live).
	slab []ledgerEntry
	head int
	live int
	// next is the last ID issued.
	next uint64
}

// issue records a prediction under the next ID and returns it, first
// evicting the oldest live entry when maxOutstanding are live.
func (l *ledger) issue(raw stochastic.Value, calSpread float64, rawQ *rawGrid) uint64 {
	if l.live >= maxOutstanding {
		l.kill(l.head)
	}
	if len(l.slab) == cap(l.slab) && l.head > 0 {
		// Full: move the kept entries to the front of this array when that
		// frees at least half of it, else leave them for the append below
		// to move to a larger one.
		kept := l.slab[l.head:]
		if l.head >= len(kept) {
			n := copy(l.slab, kept)
			clear(l.slab[n:])
			kept = l.slab[:n]
		}
		l.slab, l.head = kept, 0
	}
	l.next++
	l.slab = append(l.slab, ledgerEntry{id: l.next, raw: raw, calSpread: calSpread, rawQ: rawQ})
	l.live++
	return l.next
}

// take removes the live entry id and returns it; ok is false when id is
// not live (never issued, already observed, discarded or evicted).
func (l *ledger) take(id uint64) (e ledgerEntry, ok bool) {
	i, found := slices.BinarySearchFunc(l.slab[l.head:], id, func(e ledgerEntry, id uint64) int {
		return cmp.Compare(e.id, id)
	})
	i += l.head
	if !found || l.slab[i].dead {
		return ledgerEntry{}, false
	}
	e = l.slab[i]
	l.kill(i)
	return e, true
}

// kill marks slab[i], a live entry, dead and lets go of its grid, then
// drops the dead entries at the front and compacts the rest once they
// outnumber the live ones.
func (l *ledger) kill(i int) {
	l.slab[i] = ledgerEntry{id: l.slab[i].id, dead: true}
	l.live--
	for l.head < len(l.slab) && l.slab[l.head].dead {
		l.head++
	}
	switch {
	case l.live == 0:
		l.slab, l.head = l.slab[:0], 0
	case len(l.slab)-l.head-l.live > l.live:
		n := 0
		for _, e := range l.slab[l.head:] {
			if !e.dead {
				l.slab[n] = e
				n++
			}
		}
		clear(l.slab[n:])
		l.slab, l.head = l.slab[:n], 0
	}
}

// encode writes the ledger's snapshot section: the last ID issued, then
// every live entry in ID order.
func (l *ledger) encode(e *snapEnc) {
	e.u64(l.next)
	e.u32(uint32(l.live))
	for i := l.head; i < len(l.slab); i++ {
		le := &l.slab[i]
		if le.dead {
			continue
		}
		e.u64(le.id)
		e.f64(le.raw.Mean)
		e.f64(le.raw.Spread)
		e.f64(le.raw.Mean)
		e.f64(le.calSpread)
		e.f64s(le.grid())
	}
}

// maxImageNextID bounds a snapshot's next ID: IDs count up from it, and one
// that wrapped past 2^64−1 would reissue the IDs of restored entries.
const maxImageNextID = 1<<63 - 1

// decode replaces an empty ledger's contents with a snapshot section. The
// section is outside input: its IDs must ascend within [1, next id], or a
// later issue would overwrite a restored entry; its next id must leave room
// to count up; and each entry must be one this daemon writes — a
// calibrated mean equal to the raw one, a grid of dist.GridLevels or none.
func (l *ledger) decode(d *snapDec) error {
	l.next = d.u64()
	if d.err == nil && l.next > maxImageNextID {
		return fmt.Errorf("predict: snapshot ledger next id %d exceeds %d", l.next, uint64(maxImageNextID))
	}
	n := d.count(8 + 4*8)
	l.slab = make([]ledgerEntry, 0, n)
	last := uint64(0)
	for i := 0; i < n && d.err == nil; i++ {
		id := d.u64()
		if d.err == nil && (id <= last || id > l.next) {
			return fmt.Errorf("predict: snapshot ledger id %d does not ascend from %d within next id %d", id, last, l.next)
		}
		last = id
		e := ledgerEntry{id: id}
		e.raw.Mean = d.f64()
		e.raw.Spread = d.f64()
		calMean := d.f64()
		e.calSpread = d.f64()
		q := d.f64s()
		if d.err != nil {
			break
		}
		if math.Float64bits(calMean) != math.Float64bits(e.raw.Mean) {
			return fmt.Errorf("predict: snapshot ledger id %d has calibrated mean %g, raw mean %g", id, calMean, e.raw.Mean)
		}
		switch len(q) {
		case 0:
		case dist.NumLevels:
			e.rawQ = (*rawGrid)(q)
		default:
			return fmt.Errorf("predict: snapshot ledger id %d has a grid of %d levels, want 0 or %d", id, len(q), dist.NumLevels)
		}
		l.slab = append(l.slab, e)
		l.live++
	}
	return d.err
}
