package stats

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width binning of a sample over [Lo, Hi). The final
// bin is closed on the right so the sample maximum is counted.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int // total observations binned
}

// NewHistogram bins xs into bins equal-width bins spanning [lo, hi]. Values
// outside the range are clamped into the first or last bin, matching how the
// paper's load histograms treat occasional out-of-range spikes.
func NewHistogram(xs []float64, lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, errors.New("stats: histogram needs at least one bin")
	}
	if !(hi > lo) {
		return nil, errors.New("stats: histogram range must have hi > lo")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	width := (hi - lo) / float64(bins)
	for _, x := range xs {
		idx := int((x - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= bins {
			idx = bins - 1
		}
		h.Counts[idx]++
		h.N++
	}
	return h, nil
}

// NewHistogramAuto bins xs over the sample's own range with the
// Freedman–Diaconis bin width 2*IQR*n^(-1/3). It returns an error for an
// empty sample.
func NewHistogramAuto(xs []float64) (*Histogram, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	if hi == lo {
		hi = lo + 1 // degenerate sample: single bin of width 1
		return NewHistogram(xs, lo, hi, 1)
	}
	n := float64(len(xs))
	q25, _ := Quantile(xs, 0.25)
	q75, _ := Quantile(xs, 0.75)
	bins := widthToBins(lo, hi, 2*(q75-q25)*math.Pow(n, -1.0/3.0))
	if bins < 1 {
		bins = 1
	}
	return NewHistogram(xs, lo, hi, bins)
}

func widthToBins(lo, hi, w float64) int {
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return 1
	}
	return int(math.Ceil((hi - lo) / w))
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinEdges returns the low and high edge of bin i.
func (h *Histogram) BinEdges(i int) (lo, hi float64) {
	w := h.BinWidth()
	return h.Lo + float64(i)*w, h.Lo + float64(i+1)*w
}

// Render draws the histogram as ASCII art, one row per bin, scaled to width
// columns. It is used by cmd/experiments to present the paper's histogram
// figures in a terminal.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		lo, hi := h.BinEdges(i)
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&b, "[%8.3f,%8.3f) %6d %s\n", lo, hi, c, strings.Repeat("#", bar))
	}
	return b.String()
}
