package nws

import "math"

// blockLen is the alignment of a monitor's whole-ring forecasters: after its
// ring wraps, a read folds at most blockLen samples from the ring and one
// stored fold per complete block of blockLen samples after them.
const blockLen = 32

// aggregate is what a Monitor keeps of its ring for the battery, so that a
// read never walks the whole ring: RunningMean and the ExpSmoothing chains
// as a window aggregate advanced one sample per push, and each WindowMedian's
// window kept sorted.
//
// While the ring has not wrapped (pushes <= capacity), the whole-ring
// forecasters are their own Predicts' left-to-right passes, bit for bit.
// After, the ring holds the samples of global index [s, n), and they are
// read in three parts cut at the multiples of blockLen:
//
//   - the head, [s, next multiple of blockLen after s), folded from the ring
//     on read as Predict folds a history;
//   - every complete block after it, each folded once when it filled: its
//     sum from +0, and per smoother the affine map x → rest^blockLen·x + b,
//     b being the smoother's recurrence over the block from 0;
//   - the tail, the block now filling, folded the same way so far.
//
// That is a different order of Predict's additions (within a few ulps of
// it), and a pure function of the ring and the push count n, which
// Stats.Recorded() carries: ImportState rebuilds it from the ring.
type aggregate struct {
	mix      *Mix
	capacity int // the ring's
	n        int // samples pushed: the global index of the next one

	// Predict's pass, advanced while n <= capacity.
	sum    float64
	smooth []float64 // parallel to mix.smooth

	// Block k holds global [k·blockLen, (k+1)·blockLen); its fold sits in slot
	// k mod len(blockSum), its smoothers' b at blockB[slot·len(mix.smooth)+c].
	blockSum []float64
	blockB   []float64
	// The block now filling: its sum, each smoother's b and rest^len.
	tailSum float64
	tailB   []float64
	tailPow []float64

	medians []sortedWindow // parallel to mix.medians: the last W samples
}

// newAggregate returns the empty aggregate of a ring of the given capacity.
func (m *Mix) newAggregate(capacity int) *aggregate {
	ns := len(m.smooth)
	// A wrapped window holds at most (capacity-1)/blockLen complete blocks
	// past its head.
	slots := max(1, (capacity-1)/blockLen)
	a := &aggregate{
		mix:      m,
		capacity: capacity,
		smooth:   make([]float64, ns),
		blockSum: make([]float64, slots),
		blockB:   make([]float64, slots*ns),
		tailB:    make([]float64, ns),
		tailPow:  make([]float64, ns),
		medians:  make([]sortedWindow, len(m.medians)),
	}
	for j, md := range m.medians {
		if md.w <= capacity {
			a.medians[j] = make(sortedWindow, 0, md.w)
		}
	}
	return a
}

// push advances the aggregate by the sample x, pushed after hist (the ring
// as it stands before the push).
func (a *aggregate) push(hist []float64, x float64) {
	m := a.mix
	for j, md := range m.medians {
		// A window wider than the ring never fills: its median never predicts.
		if md.w > a.capacity {
			continue
		}
		if len(hist) >= md.w {
			a.medians[j].remove(hist[len(hist)-md.w])
		}
		a.medians[j].insert(x)
	}
	g := a.n
	a.n++
	if a.n <= a.capacity {
		a.sum += x
		for c, sm := range m.smooth {
			if g == 0 {
				a.smooth[c] = x
			} else {
				a.smooth[c] = sm.alpha*x + sm.rest*a.smooth[c]
			}
		}
	}
	if g%blockLen == 0 {
		a.tailSum = 0
		for c := range a.tailB {
			a.tailB[c], a.tailPow[c] = 0, 1
		}
	}
	a.tailSum += x
	for c, sm := range m.smooth {
		a.tailB[c] = sm.alpha*x + sm.rest*a.tailB[c]
		a.tailPow[c] *= sm.rest
	}
	if a.n%blockLen == 0 {
		slot := g / blockLen % len(a.blockSum)
		a.blockSum[slot] = a.tailSum
		copy(a.blockB[slot*len(m.smooth):], a.tailB)
	}
}

// rebuild makes the aggregate of a ring holding hist after recorded pushes,
// as the pushes themselves would have left it in every part a read uses.
func (a *aggregate) rebuild(hist []float64, recorded int) {
	a.n, a.sum = recorded-len(hist), 0
	a.tailSum = 0
	for c := range a.tailB {
		a.smooth[c], a.tailB[c], a.tailPow[c] = 0, 0, 1
	}
	for j := range a.medians {
		a.medians[j] = a.medians[j][:0]
	}
	for i, x := range hist {
		a.push(hist[:i], x)
	}
}

// sweep reads the battery's predictions of hist, the ring the aggregate has
// followed, into out: Mix.sweep's result, with the whole-ring forecasters
// read as the aggregate defines them.
func (a *aggregate) sweep(hist []float64, out *sweep) {
	m := a.mix
	m.sweeps++
	for i, f := range m.forecasters {
		if !m.kept[i] {
			out.val[i], out.ok[i] = f.Predict(hist)
		}
	}
	for j, md := range m.medians {
		out.val[md.idx], out.ok[md.idx] = 0, false
		if len(hist) >= md.w {
			out.val[md.idx], out.ok[md.idx] = a.medians[j].median(), true
		}
	}
	if len(hist) == 0 {
		for i, fused := range m.fused {
			if fused {
				out.val[i], out.ok[i] = 0, false
			}
		}
		return
	}
	sum := a.sum
	if a.n <= a.capacity {
		for c, sm := range m.smooth {
			out.val[sm.idx] = a.smooth[c]
		}
	} else {
		sum = a.fold(hist, out)
	}
	for _, i := range m.means {
		out.val[i], out.ok[i] = sum/float64(len(hist)), true
	}
	for _, sm := range m.smooth {
		out.ok[sm.idx] = true
	}
}

// fold reads a wrapped ring's head, blocks and tail: it returns the sum and
// leaves each smoother's value in its slot of out.
func (a *aggregate) fold(hist []float64, out *sweep) float64 {
	m := a.mix
	ns := len(m.smooth)
	s := a.n - len(hist)
	headEnd := (s/blockLen + 1) * blockLen
	if headEnd > a.n {
		headEnd = a.n
	}
	head := hist[:headEnd-s]
	var sum float64
	sum += head[0]
	for _, sm := range m.smooth {
		out.val[sm.idx] = head[0]
	}
	for _, x := range head[1:] {
		sum += x
		for _, sm := range m.smooth {
			out.val[sm.idx] = sm.alpha*x + sm.rest*out.val[sm.idx]
		}
	}
	for k := s/blockLen + 1; (k+1)*blockLen <= a.n; k++ {
		slot := k % len(a.blockSum)
		sum += a.blockSum[slot]
		for c, sm := range m.smooth {
			out.val[sm.idx] = sm.pow*out.val[sm.idx] + a.blockB[slot*ns+c]
		}
	}
	if t := a.n / blockLen * blockLen; t >= headEnd && t < a.n {
		sum += a.tailSum
		for c, sm := range m.smooth {
			out.val[sm.idx] = a.tailPow[c]*out.val[sm.idx] + a.tailB[c]
		}
	}
	return sum
}

// sortedWindow is a multiset of samples in sort.Float64s's order — NaN
// first, then ascending, -0 and +0 tied — kept by one binary-search removal
// and one insertion per change, never re-sorted. Tied samples keep their
// arrival order, so the window is a stable sort of its samples.
type sortedWindow []float64

// floatLess is sort.Float64s's order.
func floatLess(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

// insert adds x after every sample it does not sort before.
func (w *sortedWindow) insert(x float64) {
	s := *w
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if floatLess(x, s[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s = append(s, 0)
	copy(s[lo+1:], s[lo:])
	s[lo] = x
	*w = s
}

// remove takes out the earliest-arrived sample with x's bits, which must be
// in the window.
func (w *sortedWindow) remove(x float64) {
	s := *w
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if floatLess(s[mid], x) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	bits := math.Float64bits(x)
	for i := lo; i < len(s) && !floatLess(x, s[i]); i++ {
		if math.Float64bits(s[i]) == bits {
			*w = append(s[:i], s[i+1:]...)
			return
		}
	}
	panic("nws: sorted window lost a sample")
}

// median is the middle of a non-empty window, or the mean of the middle two.
func (w sortedWindow) median() float64 {
	n := len(w)
	if n%2 == 1 {
		return w[n/2]
	}
	return (w[n/2-1] + w[n/2]) / 2
}
