package predict

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"prodpred/internal/calib"
	"prodpred/internal/dist"
	"prodpred/internal/stochastic"
)

// isLive reports whether id is an entry of l not yet observed, discarded or
// evicted.
func (l *ledger) isLive(id uint64) bool {
	for _, e := range l.slab[l.head:] {
		if e.id == id {
			return !e.dead
		}
	}
	return false
}

// TestLedgerDeadSlotsDoNotEvict is the unit-level regression for the
// eviction bug: observed IDs leave dead slots in the issue order, and a
// bound on slots rather than live entries let them evict a live prediction
// while only a handful were truly outstanding.
func TestLedgerDeadSlotsDoNotEvict(t *testing.T) {
	var l ledger
	v := stochastic.New(1, 0.1)

	first := l.issue(v, v.Spread, nil)
	// maxOutstanding observed round-trips: each leaves a dead slot the old
	// accounting would have counted against the retention bound.
	for i := 0; i < maxOutstanding; i++ {
		id := l.issue(v, v.Spread, nil)
		l.take(id) // what Observe does to the ledger
	}
	next := l.issue(v, v.Spread, nil)

	if !l.isLive(first) {
		t.Error("oldest live prediction was evicted while only 2 were outstanding")
	}
	if !l.isLive(next) {
		t.Error("freshly issued prediction missing from ledger")
	}
	if l.live != 2 {
		t.Errorf("outstanding = %d, want 2", l.live)
	}
}

// TestLedgerEvictsOldestLiveAtBound asserts the bound still holds on the
// true outstanding count: at maxOutstanding live entries, issuing one more
// evicts exactly the oldest live prediction.
func TestLedgerEvictsOldestLiveAtBound(t *testing.T) {
	var l ledger
	v := stochastic.New(1, 0.1)

	ids := make([]uint64, maxOutstanding)
	for i := range ids {
		ids[i] = l.issue(v, v.Spread, nil)
	}
	// Observe the three oldest: dead IDs now sit below the oldest live
	// entry ids[3].
	for _, id := range ids[:3] {
		l.take(id)
	}
	// Refill to exactly maxOutstanding live, then push one over the bound.
	for i := 0; i < 3; i++ {
		l.issue(v, v.Spread, nil)
	}
	over := l.issue(v, v.Spread, nil)

	if l.isLive(ids[3]) {
		t.Error("oldest live prediction should have been evicted at the bound (dead slots skipped)")
	}
	if !l.isLive(ids[4]) || !l.isLive(over) {
		t.Error("younger live predictions must survive the eviction")
	}
	if l.live != maxOutstanding {
		t.Errorf("outstanding = %d, want %d", l.live, maxOutstanding)
	}
}

// refLedger is the ledger as a map keyed by ID plus an eviction cursor, the
// design the slab replaced, kept as the reference the slab is held to: its
// issue, observe, discard, snapshot writer and snapshot reader are that
// design's code.
type refLedger struct {
	nextID, evicted uint64
	issued          map[uint64]refEntry
}

type refEntry struct {
	raw, calibrated stochastic.Value
	rawQ            []float64
}

func newRefLedger() *refLedger { return &refLedger{issued: make(map[uint64]refEntry)} }

func (r *refLedger) issue(raw, calibrated stochastic.Value, rawQ []float64) uint64 {
	if len(r.issued) >= maxOutstanding {
		for {
			r.evicted++
			if _, live := r.issued[r.evicted]; live {
				delete(r.issued, r.evicted)
				break
			}
		}
	}
	r.nextID++
	r.issued[r.nextID] = refEntry{raw: raw, calibrated: calibrated, rawQ: rawQ}
	return r.nextID
}

func (r *refLedger) observe(id uint64, now, actual float64) (calib.Outcome, bool) {
	ip, ok := r.issued[id]
	delete(r.issued, id)
	if !ok {
		return calib.Outcome{}, false
	}
	return calib.Outcome{
		ID:           id,
		Time:         now,
		Raw:          ip.raw,
		Calibrated:   ip.calibrated,
		Actual:       actual,
		RawQuantiles: ip.rawQ,
	}, true
}

func (r *refLedger) encode(e *snapEnc) {
	e.u64(r.nextID)
	live := make([]uint64, 0, len(r.issued))
	for id := range r.issued {
		live = append(live, id)
	}
	slices.Sort(live)
	e.u32(uint32(len(live)))
	for _, id := range live {
		ip := r.issued[id]
		e.u64(id)
		e.f64(ip.raw.Mean)
		e.f64(ip.raw.Spread)
		e.f64(ip.calibrated.Mean)
		e.f64(ip.calibrated.Spread)
		e.f64s(ip.rawQ)
	}
}

func (r *refLedger) decode(d *snapDec) error {
	r.nextID = d.u64()
	r.evicted = r.nextID
	n := d.count(8 + 4*8)
	last := uint64(0)
	for i := 0; i < n && d.err == nil; i++ {
		id := d.u64()
		if d.err == nil && (id <= last || id > r.nextID) {
			return fmt.Errorf("ledger id %d does not ascend from %d within next id %d", id, last, r.nextID)
		}
		if i == 0 {
			r.evicted = id - 1
		}
		last = id
		ip := refEntry{}
		ip.raw.Mean = d.f64()
		ip.raw.Spread = d.f64()
		ip.calibrated.Mean = d.f64()
		ip.calibrated.Spread = d.f64()
		ip.rawQ = d.f64s()
		r.issued[id] = ip
	}
	return d.err
}

// ledgerPair runs one operation sequence on a ledger and on the reference
// and checks after every step that they agree: the live count, every
// outcome an observe hands the tracker, the snapshot section (which lists
// the live IDs) byte for byte — and that the slab keeps its length bound.
type ledgerPair struct {
	t    testing.TB
	got  ledger
	want *refLedger
	now  float64
}

func newLedgerPair(t testing.TB) *ledgerPair { return &ledgerPair{t: t, want: newRefLedger()} }

// issue issues one prediction on both sides, with a grid when grid is set.
func (p *ledgerPair) issue(rng *rand.Rand, grid bool) {
	raw := stochastic.New(1+rng.Float64()*100, rng.Float64()*10)
	cal := stochastic.New(raw.Mean, raw.Spread*(0.5+rng.Float64()))
	var q []float64
	var g *rawGrid
	if grid {
		q = make([]float64, dist.NumLevels)
		for i := range q {
			q[i] = raw.Mean + float64(i) + rng.Float64()
		}
		g = (*rawGrid)(q)
	}
	got, want := p.got.issue(raw, cal.Spread, g), p.want.issue(raw, cal, q)
	if got != want {
		p.t.Fatalf("issued id %d, reference %d", got, want)
	}
	p.check()
}

// observe answers id on both sides, as Service.Observe does.
func (p *ledgerPair) observe(id uint64) {
	p.now++
	actual := p.now / 3
	e, ok := p.got.take(id)
	var got calib.Outcome
	if ok {
		got = e.outcome(p.now, actual)
	}
	want, wantOK := p.want.observe(id, p.now, actual)
	if ok != wantOK || !reflect.DeepEqual(got, want) {
		p.t.Fatalf("observe %d: outcome %+v (%v), reference %+v (%v)", id, got, ok, want, wantOK)
	}
	p.check()
}

// discard forgets id on both sides, as Service.Discard does.
func (p *ledgerPair) discard(id uint64) {
	p.got.take(id)
	delete(p.want.issued, id)
	p.check()
}

// roundTrip replaces both sides with what their snapshot sections restore.
func (p *ledgerPair) roundTrip() {
	var e snapEnc
	p.got.encode(&e)
	var got ledger
	if err := got.decode(&snapDec{b: e.b}); err != nil {
		p.t.Fatal(err)
	}
	var w snapEnc
	p.want.encode(&w)
	want := newRefLedger()
	if err := want.decode(&snapDec{b: w.b}); err != nil {
		p.t.Fatal(err)
	}
	p.got, p.want = got, want
	p.check()
}

// someID returns a recent ID, live or not, or one just past the last
// issued: about one in two is live.
func (p *ledgerPair) someID(rng *rand.Rand) uint64 {
	return p.want.nextID + 1 - uint64(rng.Intn(2*len(p.want.issued)+2))
}

func (p *ledgerPair) check() {
	p.t.Helper()
	if p.got.live != len(p.want.issued) {
		p.t.Fatalf("outstanding %d, reference %d", p.got.live, len(p.want.issued))
	}
	if kept := len(p.got.slab) - p.got.head; kept > 2*p.got.live {
		p.t.Fatalf("slab keeps %d entries for %d live", kept, p.got.live)
	}
	got := snapEnc{b: make([]byte, 0, 128*p.got.live+16)}
	want := snapEnc{b: make([]byte, 0, 128*p.got.live+16)}
	p.got.encode(&got)
	p.want.encode(&want)
	if !bytes.Equal(got.b, want.b) {
		p.t.Fatalf("snapshot section of %d bytes differs from the reference's %d", len(got.b), len(want.b))
	}
}

// TestLedgerMatchesReference runs seeded random sequences of issues,
// observes, discards, snapshot round trips and bursts past the bound on the
// slab and on the map-and-cursor reference, and the pattern of a client
// that observes all but one prediction in a thousand.
func TestLedgerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, bursts := newLedgerPair(t), 0
		for step := 0; step < 2000; step++ {
			// The ledger grows over the first half and shrinks over the
			// second.
			r := rng.Intn(100)
			if step >= 1000 {
				r += 10
			}
			switch {
			case r < 45:
				p.issue(rng, rng.Intn(2) == 0)
			case r < 50:
				p.roundTrip()
			case r < 51 && bursts < 3:
				bursts++
				// A burst to the bound, a few evicting issues checked one
				// by one, and a drain in random order back to where it was.
				n := len(p.want.issued)
				for i := n; i < maxOutstanding; i++ {
					p.got.issue(stochastic.Point(1), 0, nil)
					p.want.issue(stochastic.Point(1), stochastic.Point(1), nil)
				}
				for i := 0; i < 6; i++ {
					p.issue(rng, i%2 == 0)
				}
				for id := range p.want.issued {
					if len(p.want.issued) <= n {
						break
					}
					p.got.take(id)
					delete(p.want.issued, id)
				}
				p.check()
			case r < 80:
				p.observe(p.someID(rng))
			case r < 95:
				p.discard(p.someID(rng))
			default:
				// Observe the oldest live prediction, as a FIFO client does.
				if p.got.live > 0 {
					p.observe(p.got.slab[p.got.head].id)
				}
			}
		}
	}

	p := newLedgerPair(t)
	rng := rand.New(rand.NewSource(7))
	for i := 1; i <= 5000; i++ {
		p.issue(rng, false)
		if i%1000 != 0 {
			p.observe(p.want.nextID)
		}
	}
	if p.got.live != 5 || len(p.got.slab)-p.got.head > 10 {
		t.Errorf("all but one in a thousand observed: %d live in %d kept entries, want 5 in at most 10", p.got.live, len(p.got.slab)-p.got.head)
	}
}

// FuzzLedger holds the slab to the map-and-cursor reference over operation
// sequences read from bytes: each byte picks an operation and the next one
// its operand.
func FuzzLedger(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 2, 2, 1, 3, 0, 4, 9, 0, 1, 5, 0})
	f.Add([]byte{6, 80, 0, 0, 1, 200, 3, 0, 6, 1, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := newLedgerPair(t)
		rng := rand.New(rand.NewSource(int64(len(ops))))
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			// An operand counts back from the last ID issued.
			id := p.want.nextID - uint64(arg)
			switch ops[i] % 7 {
			case 0:
				p.issue(rng, false)
			case 1:
				p.issue(rng, true)
			case 2:
				p.observe(id)
			case 3:
				p.discard(id)
			case 4:
				p.roundTrip()
			case 5:
				if p.got.live > 0 {
					p.observe(p.got.slab[p.got.head].id)
				}
			case 6:
				// A burst of arg×64 unchecked issues (reaching the bound
				// at arg = 64), then one checked.
				for j := 0; j < int(arg)*64; j++ {
					p.got.issue(stochastic.Point(2), 0, nil)
					p.want.issue(stochastic.Point(2), stochastic.Point(2), nil)
				}
				p.issue(rng, arg%2 == 0)
			}
		}
	})
}

// TestLedgerRefusesForeignEntries: a snapshot's ledger entries must be ones
// this daemon writes — a calibrated mean bit-equal to the raw one, a grid
// of dist.GridLevels or none — and its next ID must leave room to count up.
func TestLedgerRefusesForeignEntries(t *testing.T) {
	entry := func(next uint64, calMean float64, grid []float64) []byte {
		var e snapEnc
		e.u64(next)
		e.u32(1)
		e.u64(1)
		e.f64(2)
		e.f64(0.5)
		e.f64(calMean)
		e.f64(0.5)
		e.f64s(grid)
		return e.b
	}
	for _, c := range []struct {
		name string
		img  []byte
		ok   bool
	}{
		{"scalar", entry(5, 2, nil), true},
		{"grid", entry(5, 2, make([]float64, dist.NumLevels)), true},
		{"moved mean", entry(5, 2.5, nil), false},
		{"short grid", entry(5, 2, make([]float64, 3)), false},
		{"next id 2^63", entry(1<<63, 2, nil), false},
		{"next id 2^63-1", entry(1<<63-1, 2, nil), true},
	} {
		var l ledger
		err := l.decode(&snapDec{b: c.img})
		if (err == nil) != c.ok {
			t.Errorf("%s: decode error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestLedgerBytesPerPrediction pins the ledger's heap cost: 4096 scalar
// predictions outstanding on one service hold at most 64 bytes each (a
// map keyed by ID held about 147).
func TestLedgerBytesPerPrediction(t *testing.T) {
	svc := simulatedService(t, 1, 1)
	req := Request{N: 200, Iterations: 50}
	p, err := svc.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Observe(p.ID, 1); err != nil {
		t.Fatal(err)
	}
	WaitRefits()
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < maxOutstanding; i++ {
		if _, err := svc.Predict(req); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	runtime.KeepAlive(svc)
	per := (float64(after) - float64(before)) / maxOutstanding
	t.Logf("%.1f heap bytes per outstanding prediction", per)
	if per > 64 {
		t.Errorf("%.1f heap bytes per outstanding prediction, want at most 64", per)
	}
	if n := svc.Outstanding(); n != maxOutstanding {
		t.Errorf("outstanding %d, want %d", n, maxOutstanding)
	}
}

// TestConcurrentLedger drives one service's ledger from several goroutines
// at once — predicts with and without grids, observes, discards and
// snapshot writes — for the race detector, and checks the count it ends
// with.
func TestConcurrentLedger(t *testing.T) {
	svc := simulatedService(t, 1, 1)
	if err := svc.Advance(60); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.addLive(svc); err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 4, 150
	var wg sync.WaitGroup
	kept := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p, err := svc.Predict(Request{N: 200, Iterations: 50, Distribution: i%3 == 0})
				if err != nil {
					t.Error(err)
					return
				}
				switch i % 4 {
				case 0:
					if _, err := svc.Observe(p.ID, p.Value.Mean); err != nil {
						t.Error(err)
						return
					}
				case 1:
					svc.Discard(p.ID)
				case 2:
					kept[w]++
				case 3:
					if err := reg.WriteSnapshot(new(bytes.Buffer)); err != nil {
						t.Error(err)
						return
					}
					svc.Discard(p.ID)
				}
			}
		}(w)
	}
	wg.Wait()
	want := 0
	for _, k := range kept {
		want += k
	}
	if n := svc.Outstanding(); n != want {
		t.Errorf("outstanding %d after the storm, want %d", n, want)
	}
}
