package load_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"prodpred/internal/load"
	"prodpred/internal/workload"
)

// memo is the unbounded reference a Sequence replaced: every tick its
// generator ever produced, kept.
type memo struct {
	gen  func(i int, prev float64) float64
	vals []float64
	dt   float64
}

func newMemo(s *load.Sequence) *memo {
	return &memo{gen: load.FactoryOf(s)(), dt: s.Interval()}
}

func (m *memo) at(t float64) float64 {
	if t < 0 {
		t = 0
	}
	idx := int(t / m.dt)
	for len(m.vals) <= idx {
		prev := math.NaN()
		if n := len(m.vals); n > 0 {
			prev = m.vals[n-1]
		}
		m.vals = append(m.vals, m.gen(len(m.vals), prev))
	}
	return m.vals[idx]
}

// sequenceBuilders returns, by name, a builder of every generator in load
// and workload.
func sequenceBuilders() map[string]func(seed int64) (load.Process, error) {
	spec := func(l workload.LoadSpec) func(int64) (load.Process, error) {
		return func(seed int64) (load.Process, error) { return l.Build(seed, false) }
	}
	return map[string]func(int64) (load.Process, error){
		"single-mode":   func(seed int64) (load.Process, error) { return load.NewSingleMode(0.5, 0.05, 0.8, 1, seed) },
		"markov-modal":  func(seed int64) (load.Process, error) { return load.Platform2FourModeBursty(seed) },
		"user-sessions": func(seed int64) (load.Process, error) { return load.NewUserSessions(0.05, 0.01, 1, seed) },
		"long-tailed":   func(seed int64) (load.Process, error) { return load.NewLongTailed(0.9, 0.1, 0.05, 1, seed) },
		"congested":     func(seed int64) (load.Process, error) { return load.EthernetContention(seed) },
		"cohorts": spec(workload.LoadSpec{Kind: "cohorts", Cohorts: []workload.Cohort{
			{Lambda: 0.05, Mu: 0.01},
			{Lambda: 0.02, Mu: 0.005, Start: 300, Period: 600, Swing: 0.5},
		}}),
		"flash-crowd": spec(workload.LoadSpec{Kind: "flash-crowd", DT: 2, Users: 1, Crowd: 6, Onset: 200, Ramp: 60, Decay: 300, Repeat: 900}),
	}
}

// buildSequence builds name's process at seed as a *load.Sequence.
func buildSequence(t *testing.T, build func(int64) (load.Process, error), name string, seed int64) *load.Sequence {
	t.Helper()
	p, err := build(seed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	s, ok := p.(*load.Sequence)
	if !ok {
		t.Fatalf("%s: %T is not a *load.Sequence", name, p)
	}
	return s
}

// read is one step of a read order: a read at t, or, with hold set, a Hold
// at t, as a clock's owner calls it after each step.
type read struct {
	t    float64
	hold bool
}

// readOrders returns, for a seeded source, the reads and holds of each read
// order, in ticks of dt.
func readOrders(rng *rand.Rand, dt float64) map[string][]read {
	const reads = 1500
	w := load.Window
	at := func(tick int) read { return read{t: (float64(tick) + rng.Float64()*0.999) * dt} }
	holdAt := func(tick int) read { return read{t: float64(tick) * dt, hold: true} }
	orders := map[string][]read{}

	var ts []read
	for tick := 0; len(ts) < reads; tick += rng.Intn(4) {
		ts = append(ts, at(tick))
	}
	orders["forward"] = ts

	ts = nil
	for tick := 0; len(ts) < reads; tick += rng.Intn(3) {
		for k := rng.Intn(4); k >= 0; k-- {
			ts = append(ts, at(tick-rng.Intn(w/2)))
		}
	}
	orders["repeated"] = ts

	ts = nil
	for head := 0; len(ts) < reads; head += 1 + rng.Intn(6) {
		ts = append(ts, at(head))
		if rng.Intn(64) == 0 {
			ts = append(ts, at(head-w-1-rng.Intn(2*w)), at(head-rng.Intn(head+1)))
		}
	}
	orders["behind"] = ts

	// A walk longer than the window with nothing held: the read back at
	// "now" falls below the ring.
	ts = nil
	for now := 0; len(ts) < reads; now += 1 + rng.Intn(6) {
		ts = append(ts, at(now))
		if rng.Intn(32) == 0 {
			walk := w + 1 + rng.Intn(w)
			for k := 0; k < walk; k += 1 + rng.Intn(8) {
				ts = append(ts, at(now+k))
			}
			ts = append(ts, at(now+walk), at(now))
		}
	}
	orders["look-ahead"] = ts

	// The same walks, up to 4 windows long, from a start less than a
	// window below a clock that is held as each step begins: the daemon's
	// truth walk over a placed job. Nothing replays.
	ts = nil
	for now := 0; len(ts) < reads; now += 1 + rng.Intn(6) {
		ts = append(ts, holdAt(now), at(now))
		if rng.Intn(32) == 0 {
			start := now - rng.Intn(w)
			walk := w + 1 + rng.Intn(3*w)
			for k := 0; k < walk; k += 1 + rng.Intn(8) {
				ts = append(ts, at(start+k))
			}
			ts = append(ts, at(start+walk), at(now), at(now-rng.Intn(w)))
		}
	}
	orders["held-look-ahead"] = ts

	// Holds at any tick, forward or back, among reads at the head, a few
	// windows below it and anywhere: the ring grows, shrinks and replays
	// in every order.
	ts = nil
	for head := 0; len(ts) < reads; head += rng.Intn(8) {
		switch rng.Intn(8) {
		case 0:
			ts = append(ts, holdAt(rng.Intn(head+w)))
		case 1:
			ts = append(ts, at(rng.Intn(head+1)))
		case 2:
			ts = append(ts, at(head-rng.Intn(4*w)))
		default:
			ts = append(ts, at(head))
		}
	}
	orders["held-anywhere"] = ts

	// Reader b is slower than a; once it has read more than the window
	// behind a, it catches up to within a quarter of it.
	ts = nil
	for a, b := 0, 0; len(ts) < reads; {
		if rng.Intn(2) == 0 {
			a += rng.Intn(6)
			ts = append(ts, at(a))
		} else {
			b += rng.Intn(4)
			ts = append(ts, at(b))
			if a-b > w {
				b = a - rng.Intn(w/4)
			}
		}
	}
	orders["two-readers"] = ts
	return orders
}

// replaying says of each read order whether it must fall below the kept
// ticks and replay; an order it does not list may replay or not.
var replaying = map[string]bool{
	"forward": false, "repeated": false, "held-look-ahead": false,
	"behind": true, "look-ahead": true, "two-readers": true,
}

// TestSequenceMatchesReference checks that a Sequence, which keeps only the
// ticks from Window below its held time (or its newest tick) and replays
// from tick 0 below them, reads the same bits as an unbounded memo of the
// same generator, on every generator and every read order; that the orders
// that fall below the kept ticks do replay; and that the forward ones and a
// held clock's look-ahead do not.
func TestSequenceMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for name, build := range sequenceBuilders() {
			dt := buildSequence(t, build, name, seed).Interval()
			for order, ts := range readOrders(rand.New(rand.NewSource(seed)), dt) {
				s := buildSequence(t, build, name, seed)
				ref := newMemo(s)
				before, _ := load.Replays()
				for i, r := range ts {
					if r.hold {
						s.Hold(r.t)
						continue
					}
					if got, want := s.At(r.t), ref.at(r.t); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d %s %s: read %d at t=%g: %v, reference %v", seed, name, order, i, r.t, got, want)
					}
				}
				after, _ := load.Replays()
				if want, ok := replaying[order]; ok && (after > before) != want {
					t.Errorf("seed %d %s %s: replayed %d times from tick 0, want replays %v", seed, name, order, after-before, want)
				}
			}
		}
	}
}

// TestSequenceHoldFrees checks that a held Sequence keeps a look-ahead's
// ticks only until a later Hold passes them: its buffer grows to cover the
// walk and shrinks back to Window once the clock has caught up.
func TestSequenceHoldFrees(t *testing.T) {
	s, err := load.Platform2FourModeBursty(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := load.KeptOf(s); got != load.Window {
		t.Fatalf("new Sequence keeps %d slots, want %d", got, load.Window)
	}
	const now, walk = 5000, 3000
	s.At(now)
	s.Hold(now)
	for k := 0; k <= walk; k++ {
		s.At(float64(now + k))
	}
	if got := load.KeptOf(s); got < walk+load.Window {
		t.Fatalf("after a %d-tick walk held at %d: %d slots, want at least %d", walk, now, got, walk+load.Window)
	}
	before, _ := load.Replays()
	s.At(now - load.Window + 1)
	if after, _ := load.Replays(); after != before {
		t.Fatalf("a read of the oldest tick held replayed")
	}
	s.Hold(now + walk/2)
	if got := load.KeptOf(s); got >= walk+load.Window || got < walk/2+load.Window {
		t.Fatalf("held halfway through the walk: %d slots, want %d to %d", got, walk/2+load.Window, walk+load.Window)
	}
	s.Hold(now + walk)
	if got := load.KeptOf(s); got != load.Window {
		t.Fatalf("held past the walk: %d slots, want %d", got, load.Window)
	}
}

// TestHoldReachesEverySequence holds a load built of every combinator over
// generated leaves and walks it far past the held time: the read back at the
// held time replays nothing only if the hold reached every leaf it reads.
func TestHoldReachesEverySequence(t *testing.T) {
	leaf := workload.LoadSpec{Kind: "platform2-bursty"}
	spec := workload.LoadSpec{Kind: "clamp", Hi: 0.9, Children: []workload.LoadSpec{
		{Kind: "switch", At: []float64{100}, Children: []workload.LoadSpec{
			leaf,
			{Kind: "sum", Weights: []float64{0.5, 0.5}, Children: []workload.LoadSpec{
				leaf,
				{Kind: "modulate", Children: []workload.LoadSpec{leaf, {Kind: "light"}}},
			}},
		}},
	}}
	p, err := spec.Build(3, false)
	if err != nil {
		t.Fatal(err)
	}
	const now = 2000
	load.Hold(p, now)
	p.At(now)
	before, _ := load.Replays()
	for k := 0; k <= 4*load.Window; k++ {
		p.At(float64(now + k))
	}
	p.At(now)
	p.At(now - load.Window + 1)
	if after, _ := load.Replays(); after != before {
		t.Errorf("reading back at the held time replayed %d times", after-before)
	}
}

// TestSequenceConcurrentReaders has several goroutines read one Sequence at
// once, ahead of and far behind each other, while a clock holds it at a
// moving time, and checks every read against the reference.
func TestSequenceConcurrentReaders(t *testing.T) {
	s, err := load.Platform2FourModeBursty(11)
	if err != nil {
		t.Fatal(err)
	}
	const span = 6 * load.Window
	ref := newMemo(s)
	want := make([]float64, span)
	for i := range want {
		want[i] = ref.at(float64(i))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			s.Hold(float64(i * span / 400))
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 400; i++ {
				tick := rng.Intn(span)
				if g%2 == 0 {
					tick = (i * (g + 1)) % span // a forward walker
				}
				if got := s.At(float64(tick)); math.Float64bits(got) != math.Float64bits(want[tick]) {
					t.Errorf("reader %d: tick %d: %v, reference %v", g, tick, got, want[tick])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
