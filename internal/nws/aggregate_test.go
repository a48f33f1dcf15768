package nws

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"prodpred/internal/timeseries"
)

// alignedFold is the aggregate's definition of the whole-ring forecasters on
// a wrapped ring, folded from scratch in O(ring): hist (hist[0] being sample
// recorded-len(hist)) is cut at every multiple of blockLen; the first part is
// folded as the sweep folds a history, and every later part on its own —
// its sum from +0, each smoother's b from 0 and rest^len in order — and then
// applied as a sum and as x → rest^len·x + b. It overwrites out's RunningMean
// and ExpSmoothing slots.
func alignedFold(mix *Mix, hist []float64, recorded int, out *sweep) {
	start := recorded - len(hist)
	var sum float64
	s := make([]float64, len(mix.smooth))
	for at := 0; at < len(hist); {
		end := min(len(hist), ((start+at)/blockLen+1)*blockLen-start)
		part := hist[at:end]
		if at == 0 {
			sum += part[0]
			for c := range s {
				s[c] = part[0]
			}
			for _, x := range part[1:] {
				sum += x
				for c, sm := range mix.smooth {
					s[c] = sm.alpha*x + sm.rest*s[c]
				}
			}
		} else {
			var bs float64
			for _, x := range part {
				bs += x
			}
			sum += bs
			for c, sm := range mix.smooth {
				b, pow := 0.0, 1.0
				for _, x := range part {
					b = sm.alpha*x + sm.rest*b
					pow *= sm.rest
				}
				s[c] = pow*s[c] + b
			}
		}
		at = end
	}
	for _, i := range mix.means {
		out.val[i] = sum / float64(len(hist))
	}
	for c, sm := range mix.smooth {
		out.val[sm.idx] = s[c]
	}
}

// TestAggregateMatchesDefinition: pushed one sample at a time through rings
// narrower than a median window, narrower than a block, on and off a block
// multiple, the aggregate reads what the battery's own Predicts read while the
// ring has not wrapped and what alignedFold reads after — every slot, to the
// bit — on streams that open with -0 and carry ties, signed zeros, denormals,
// NaN, infinities and sums that overflow; and an aggregate rebuilt from the
// ring and the push count at any point reads the same.
func TestAggregateMatchesDefinition(t *testing.T) {
	negZero := math.Copysign(0, -1)
	const n = 300
	streams := map[string][]float64{}
	ties := make([]float64, n)
	for i := range ties {
		ties[i] = math.Round(hash01(uint64(i))*8)/8 - 0.5 // ±0.5 in eighths, 0 among them
		switch h := hash01(uint64(i) + 1e6); {
		case i == 0 || h < 0.1:
			ties[i] = negZero
		case h < 0.15:
			ties[i] = 5e-324 * float64(1+i%3)
		}
	}
	streams["ties"] = ties
	nonFinite := make([]float64, n)
	for i := range nonFinite {
		nonFinite[i] = hash01(uint64(i))
	}
	nonFinite[40], nonFinite[150], nonFinite[151] = math.NaN(), math.Inf(1), math.Inf(-1)
	streams["non-finite"] = nonFinite
	huge := make([]float64, n)
	for i := range huge {
		huge[i] = math.MaxFloat64 * (0.5 + 0.5*hash01(uint64(i)))
	}
	streams["overflowing"] = huge

	batteries := map[string][]Forecaster{
		"default": DefaultBattery(),
		"odd": {
			ExpSmoothing{Alpha: 1}, ExpSmoothing{Alpha: 5e-324}, ExpSmoothing{Alpha: 0}, RunningMean{},
			WindowMedian{W: 1}, WindowMedian{W: 4}, WindowMedian{W: 0}, WindowMedian{W: 40},
			ExpSmoothing{Alpha: 0.3}, RunningMean{}, WindowMedian{W: 4},
		},
	}
	for bname, battery := range batteries {
		for sname, stream := range streams {
			for _, capacity := range []int{1, 4, 16, 31, 32, 33, 64, 100} {
				mix := NewMix(battery)
				agg := mix.newAggregate(capacity)
				rebuilt := mix.newAggregate(capacity)
				ring, err := timeseries.NewRing(capacity)
				if err != nil {
					t.Fatal(err)
				}
				got, want := mix.newSweep(), mix.newSweep()
				for k, x := range stream {
					agg.push(ring.View(), x)
					ring.Push(float64(k), x)
					hist := ring.View()
					for i, f := range battery {
						want.val[i], want.ok[i] = f.Predict(hist)
					}
					if k+1 > capacity {
						alignedFold(mix, hist, k+1, &want)
					}
					rebuilt.rebuild(hist, k+1)
					for what, a := range map[string]*aggregate{"pushed": agg, "rebuilt": rebuilt} {
						a.sweep(hist, &got)
						for i, f := range battery {
							g, w := got.val[i], want.val[i]
							same := math.Float64bits(g) == math.Float64bits(w)
							if _, ok := f.(WindowMedian); ok && g == 0 && w == 0 {
								// -0 and +0 tie in sort.Float64s's order, which
								// is unstable: either may stand in the middle.
								same = true
							}
							if got.ok[i] != want.ok[i] || !same {
								t.Fatalf("%s battery, %s stream, ring %d, sample %d, %s aggregate: slot %d (%s) reads (%v, %v), want (%v, %v)",
									bname, sname, capacity, k, what, i, f.Name(), g, got.ok[i], w, want.ok[i])
							}
						}
					}
				}
			}
		}
	}
}

// FuzzSortedWindow: whatever samples arrive and leave — NaNs of any payload,
// infinities, signed zeros, ties, denormals — the window is its samples in
// sort.Float64s's order with ties in arrival order: sort.Float64s leaves it
// bitwise as it is, and position by position it holds the bits
// sort.Float64s of its samples holds, up to the order among samples that
// order ties (NaNs; -0 and +0), which sort.Float64s does not fix.
func FuzzSortedWindow(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(14), []byte{5, 6, 5, 6, 5, 0, 1, 2, 0xff, 6, 5, 7, 7, 8, 0xff, 0xff, 3, 4})
	f.Add(uint8(63), []byte{0x80, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 6, 5, 6, 0x80, 0, 0, 0, 0, 0, 0, 0, 0x80})
	palette := []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000000), math.Float64frombits(0xfff0000000000001),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310,
		1, 1, -1, 0.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	f.Fuzz(func(t *testing.T, width uint8, ops []byte) {
		w := 1 + int(width)%empiricalWindow
		var win sortedWindow
		var fifo []float64
		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			switch {
			case op == 0xff: // a sample leaves without one arriving
				if len(fifo) > 0 {
					win.remove(fifo[0])
					fifo = fifo[1:]
				}
			default:
				x := palette[int(op)%len(palette)]
				if op >= 0x80 && len(ops) >= 8 {
					x = math.Float64frombits(binary.LittleEndian.Uint64(ops))
					ops = ops[8:]
				}
				if len(fifo) == w {
					win.remove(fifo[0])
					fifo = fifo[1:]
				}
				win.insert(x)
				fifo = append(fifo, x)
			}
			checkSortedWindow(t, win, fifo)
		}
	})
}

func checkSortedWindow(t *testing.T, win sortedWindow, fifo []float64) {
	t.Helper()
	bitsOf := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	stable := slices.Clone(fifo)
	slices.SortStableFunc(stable, func(a, b float64) int {
		switch {
		case floatLess(a, b):
			return -1
		case floatLess(b, a):
			return 1
		}
		return 0
	})
	if !slices.Equal(bitsOf(win), bitsOf(stable)) {
		t.Fatalf("window %v holds %v, want its stable sort %v", win, fifo, stable)
	}
	resorted := slices.Clone(win)
	sort.Float64s(resorted)
	if !slices.Equal(bitsOf(win), bitsOf(resorted)) {
		t.Fatalf("sort.Float64s moves window %v to %v", win, resorted)
	}
	fresh := slices.Clone(fifo)
	sort.Float64s(fresh)
	for i, x := range win {
		y := fresh[i]
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) && !(x == 0 && y == 0) {
			t.Fatalf("window %v, sort.Float64s of its samples %v: position %d differs", win, fresh, i)
		}
	}
}
