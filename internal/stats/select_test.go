package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
)

// checkQuantileSelect runs quantileSelect on a copy of xs and holds it to
// sort.Float64s followed by QuantileSorted: bit for bit, or equal as numbers
// (NaN matching NaN) where a read lands on a zero or a NaN, whose ties the
// sort does not order either. The copy must come out a permutation of xs.
func checkQuantileSelect(t *testing.T, xs []float64, q float64, rounds int) {
	t.Helper()
	s := slices.Clone(xs)
	sort.Float64s(s)
	want := QuantileSorted(s, q)
	perm := slices.Clone(xs)
	got := quantileSelect(perm, q, rounds)
	if !slices.Equal(sortedBits(perm), sortedBits(xs)) {
		t.Fatalf("n=%d q=%v rounds=%d: %v came out as %v, not a permutation", len(xs), q, rounds, xs, perm)
	}
	if math.Float64bits(got) == math.Float64bits(want) {
		return
	}
	h := q * float64(len(s)-1)
	lo, hi := s[int(math.Floor(h))], s[int(math.Ceil(h))]
	tied := func(x float64) bool { return x == 0 || math.IsNaN(x) }
	if (tied(lo) || tied(hi)) && (got == want || math.IsNaN(got) && math.IsNaN(want)) {
		return
	}
	t.Fatalf("n=%d q=%v rounds=%d: %v selects %v (%#x), the sort reads %v (%#x)",
		len(xs), q, rounds, xs, got, math.Float64bits(got), want, math.Float64bits(want))
}

func sortedBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	slices.Sort(out)
	return out
}

// TestQuantileInPlaceShapes runs the selection over the inputs a
// median-of-three partition handles worst, at every length to 300, with its
// rounds unbounded by the default and cut to 0 and 1 so the sort it falls
// back on finishes the job.
func TestQuantileInPlaceShapes(t *testing.T) {
	shapes := map[string]func(i, n int) float64{
		"sorted":    func(i, n int) float64 { return float64(i) },
		"reverse":   func(i, n int) float64 { return float64(n - i) },
		"all-equal": func(i, n int) float64 { return 7 },
		"organ-pipe": func(i, n int) float64 {
			return float64(min(i, n-1-i))
		},
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			for n := 1; n <= 300; n++ {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = shape(i, n)
				}
				level := math.Min(math.Ceil(float64(n+1)*0.95)/float64(n), 1)
				for _, q := range []float64{0, 0.025, 0.5, 0.9, level, 1} {
					for _, rounds := range []int{0, 1, selectRounds(n)} {
						checkQuantileSelect(t, xs, q, rounds)
					}
				}
			}
		})
	}
}

// TestQuantileMatchesSortOnSpecials pins the NaN-first order and the
// interpolation across infinities and signed zeros on a few hand-built
// samples.
func TestQuantileMatchesSortOnSpecials(t *testing.T) {
	nan, inf, negz := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	for _, xs := range [][]float64{
		{nan, 1, nan, 0},
		{3, nan, -inf, inf, 2},
		{negz, 0, negz, 1, -1},
		{5e-324, -5e-324, 0, negz},
		{inf, inf, -inf},
	} {
		for _, q := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.99, 1} {
			checkQuantileSelect(t, xs, q, selectRounds(len(xs)))
		}
	}
}

// FuzzQuantileInPlace holds the selection to the sort on any sample — NaNs,
// infinities, signed zeros, ties and denormals from a palette, or raw bit
// patterns — at any level in [0,1], under the default round budget and
// under a budget of one.
func FuzzQuantileInPlace(f *testing.F) {
	f.Add(0.5, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(1.0, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(0.95, []byte{5, 6, 5, 6, 5, 0, 1, 2, 6, 5, 7, 7, 8, 3, 4})
	f.Add(0.3, []byte{0x80, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 6, 5, 6, 0x80, 0, 0, 0, 0, 0, 0, 0, 0x80})
	palette := []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000001),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310,
		1, 1, -1, 0.5, 2, 3, math.MaxFloat64, -math.MaxFloat64,
	}
	f.Fuzz(func(t *testing.T, q float64, data []byte) {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			q = 0.5
		}
		if q = math.Abs(q); q > 1 {
			q -= math.Floor(q)
		}
		var xs []float64
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			x := palette[int(op)%len(palette)]
			if op >= 0x80 && len(data) >= 8 {
				x = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return
		}
		checkQuantileSelect(t, xs, q, selectRounds(len(xs)))
		checkQuantileSelect(t, xs, q, 1)
	})
}
