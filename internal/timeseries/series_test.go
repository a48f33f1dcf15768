package timeseries

import (
	"testing"
	"testing/quick"
)

func TestSeriesAppendAndAccessors(t *testing.T) {
	s := NewSeries(4)
	for i := 0; i < 5; i++ {
		if err := s.Append(float64(i), float64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len=%d", s.Len())
	}
	if p := s.At(2); p.T != 2 || p.V != 20 {
		t.Errorf("At(2)=%+v", p)
	}
	if vs := s.Values(); len(vs) != 5 || vs[3] != 30 {
		t.Errorf("Values=%v", vs)
	}
	if ts := s.Times(); ts[4] != 4 {
		t.Errorf("Times=%v", ts)
	}
}

func TestSeriesRejectsNonMonotonic(t *testing.T) {
	s := NewSeries(0)
	if err := s.Append(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(4, 1); err == nil {
		t.Error("decreasing timestamp should fail")
	}
	// Equal timestamps are allowed (sensor reporting at the same tick).
	if err := s.Append(5, 2); err != nil {
		t.Errorf("equal timestamp should be ok: %v", err)
	}
}

func TestFromSlices(t *testing.T) {
	s, err := FromSlices([]float64{1, 2, 3}, []float64{10, 20, 30})
	if err != nil || s.Len() != 3 {
		t.Fatalf("FromSlices err=%v len=%d", err, s.Len())
	}
	if _, err := FromSlices([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatch should fail")
	}
	if _, err := FromSlices([]float64{2, 1}, []float64{0, 0}); err == nil {
		t.Error("unordered times should fail")
	}
}

func TestValueAt(t *testing.T) {
	s, _ := FromSlices([]float64{1, 3, 5}, []float64{10, 30, 50})
	if _, ok := s.ValueAt(0.5); ok {
		t.Error("before first point should be !ok")
	}
	cases := []struct{ t, want float64 }{{1, 10}, {2.9, 10}, {3, 30}, {4, 30}, {99, 50}}
	for _, c := range cases {
		v, ok := s.ValueAt(c.t)
		if !ok || v != c.want {
			t.Errorf("ValueAt(%g)=%g,%v want %g", c.t, v, ok, c.want)
		}
	}
}

func TestRingBasics(t *testing.T) {
	r, err := NewRing(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cap() != 3 || r.Len() != 0 {
		t.Fatalf("cap=%d len=%d", r.Cap(), r.Len())
	}
	if _, ok := r.Last(); ok {
		t.Error("empty Last should be !ok")
	}
	r.Push(1, 10)
	r.Push(2, 20)
	if last, ok := r.Last(); !ok || last.V != 20 {
		t.Errorf("Last=%+v,%v", last, ok)
	}
	r.Push(3, 30)
	r.Push(4, 40) // evicts (1,10)
	if r.Len() != 3 {
		t.Fatalf("len=%d", r.Len())
	}
	want := []float64{20, 30, 40}
	got := r.Values()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Values=%v want %v", got, want)
		}
	}
	if p := r.At(0); p.T != 2 {
		t.Errorf("oldest=%+v", p)
	}
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Error("size 0 should fail")
	}
	if _, err := NewRing(-2); err == nil {
		t.Error("negative size should fail")
	}
}

// Property: a ring holds exactly the last min(n, cap) pushed values in
// order.
func TestRingRetentionProperty(t *testing.T) {
	f := func(valsRaw []float64, capRaw uint8) bool {
		size := int(capRaw%20) + 1
		r, err := NewRing(size)
		if err != nil {
			return false
		}
		for i, v := range valsRaw {
			r.Push(float64(i), v)
		}
		want := valsRaw
		if len(want) > size {
			want = want[len(want)-size:]
		}
		got := r.Values()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// View must stay one contiguous, ordered window of the stored values across
// evictions and window moves, and Values must stay a copy of it.
func TestRingViewIsTheStoredWindow(t *testing.T) {
	for _, size := range []int{1, 2, 7, 8, 64} {
		r, _ := NewRing(size)
		for i := 0; i < 5*(size+ringSlack(size)); i++ {
			r.Push(float64(i), float64(10*i))
			view := r.View()
			if len(view) != r.Len() || cap(view) != len(view) {
				t.Fatalf("size %d push %d: view len %d cap %d, ring len %d", size, i, len(view), cap(view), r.Len())
			}
			for k, v := range view {
				if p := r.At(k); p.V != v || p.T != float64(i-len(view)+1+k) || v != 10*p.T {
					t.Fatalf("size %d push %d: view[%d]=%g, At=%+v", size, i, k, v, p)
				}
			}
			vals := r.Values()
			vals[0] = -1
			if r.View()[0] == -1 {
				t.Fatalf("size %d push %d: Values aliases the ring", size, i)
			}
		}
	}
}

// A ring holds buffers for what it was pushed: a 512-point ring after a
// 120 s warm-up at a 5 s period (24 points) has not reserved its capacity.
func TestRingGrowsOnDemand(t *testing.T) {
	r, _ := NewRing(512)
	for i := 0; i < 24; i++ {
		r.Push(float64(i), float64(i))
	}
	if len(r.ts) >= 128 || len(r.vs) >= 128 {
		t.Fatalf("a 512-point ring holding 24 points has buffers of %d and %d slots", len(r.ts), len(r.vs))
	}
	for i := 24; i < 2000; i++ {
		r.Push(float64(i), float64(i))
	}
	if full := 512 + ringSlack(512); len(r.ts) != full || len(r.vs) != full {
		t.Fatalf("a wrapped 512-point ring has buffers of %d and %d slots, want %d", len(r.ts), len(r.vs), full)
	}
}

// FuzzRing pushes a sequence into a ring of a size in [1, 600] and checks
// every accessor against a plain slice of the last Cap points after every
// push.
func FuzzRing(f *testing.F) {
	f.Add(uint16(3), uint16(10), []byte{1, 2, 3})
	f.Add(uint16(511), uint16(1200), []byte("ring"))
	f.Add(uint16(599), uint16(4000), []byte{0xff, 0, 7})
	f.Fuzz(func(t *testing.T, sizeRaw, pushes uint16, data []byte) {
		size := int(sizeRaw)%600 + 1
		if len(data) == 0 {
			data = []byte{0}
		}
		r, err := NewRing(size)
		if err != nil {
			t.Fatal(err)
		}
		var model []Point
		for i := 0; i < int(pushes)%4096; i++ {
			p := Point{T: float64(i), V: float64(data[i%len(data)]) - float64(i)/3}
			r.Push(p.T, p.V)
			model = append(model, p)
			if len(model) > size {
				model = model[1:]
			}
			if r.Len() != len(model) || r.Cap() != size {
				t.Fatalf("size %d push %d: Len %d Cap %d, want %d and %d", size, i, r.Len(), r.Cap(), len(model), size)
			}
			if last, ok := r.Last(); !ok || last != p {
				t.Fatalf("size %d push %d: Last %+v %v, want %+v", size, i, last, ok, p)
			}
			view, vals := r.View(), r.Values()
			if len(view) != len(model) || len(vals) != len(model) {
				t.Fatalf("size %d push %d: View %d and Values %d points, want %d", size, i, len(view), len(vals), len(model))
			}
			for k, want := range model {
				if got := r.At(k); got != want || view[k] != want.V || vals[k] != want.V {
					t.Fatalf("size %d push %d: point %d is At %+v, View %g, Values %g; want %+v", size, i, k, got, view[k], vals[k], want)
				}
			}
		}
	})
}
