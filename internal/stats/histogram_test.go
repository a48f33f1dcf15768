package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHistogramBasics(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.3, 0.9, 0.95}
	h, err := NewHistogram(xs, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Counts) != 4 || h.N != 5 {
		t.Fatalf("bins=%d n=%d", len(h.Counts), h.N)
	}
	want := []int{2, 1, 0, 2}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d count=%d want %d", i, h.Counts[i], w)
		}
	}
	if got := h.BinWidth(); got != 0.25 {
		t.Errorf("BinWidth=%g", got)
	}
	lo, hi := h.BinEdges(1)
	if lo != 0.25 || hi != 0.5 {
		t.Errorf("BinEdges(1)=%g,%g", lo, hi)
	}
}

func TestNewHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 0, 1, 0); err == nil {
		t.Error("0 bins should error")
	}
	if _, err := NewHistogram(nil, 1, 1, 3); err == nil {
		t.Error("hi==lo should error")
	}
	if _, err := NewHistogram(nil, 2, 1, 3); err == nil {
		t.Error("hi<lo should error")
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	xs := []float64{-5, 0.5, 99}
	h, err := NewHistogram(xs, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 {
		t.Errorf("counts=%v", h.Counts)
	}
}

func TestHistogramMaxValueCounted(t *testing.T) {
	// The sample maximum lands exactly on the top edge; it must be counted
	// in the last bin, not dropped.
	xs := []float64{0, 0.5, 1.0}
	h, _ := NewHistogram(xs, 0, 1, 2)
	if h.N != 3 || h.Counts[1] != 2 {
		t.Errorf("counts=%v n=%d", h.Counts, h.N)
	}
}

func TestHistogramAutoRules(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	h, err := NewHistogramAuto(xs)
	if err != nil {
		t.Fatal(err)
	}
	if bins := len(h.Counts); bins < 2 || bins > 200 {
		t.Errorf("Freedman–Diaconis produced %d bins", bins)
	}
	if h.N != len(xs) {
		t.Errorf("binned %d of %d", h.N, len(xs))
	}
	if _, err := NewHistogramAuto(nil); err != ErrEmpty {
		t.Errorf("empty err=%v", err)
	}
	// Degenerate single-value sample gets one bin.
	h, err = NewHistogramAuto([]float64{7, 7, 7})
	if err != nil || len(h.Counts) != 1 || h.N != 3 {
		t.Errorf("degenerate: %+v err=%v", h, err)
	}
}

func TestHistogramRender(t *testing.T) {
	h := &Histogram{Lo: 0, Hi: 2, Counts: []int{1, 4}, N: 5}
	out := h.Render(8)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("render lines=%d\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "########") {
		t.Errorf("max bin not full width: %q", lines[1])
	}
	if !strings.Contains(lines[0], "##") || strings.Contains(lines[0], "###") {
		t.Errorf("scaled bin wrong: %q", lines[0])
	}
	// Zero width falls back to a default, and an empty histogram renders
	// without dividing by zero.
	empty := &Histogram{Lo: 0, Hi: 1, Counts: []int{0}, N: 0}
	if out := empty.Render(0); !strings.Contains(out, "0") {
		t.Errorf("empty render=%q", out)
	}
}

// Property: total counts equal input length and every count is non-negative,
// regardless of range.
func TestHistogramCountConservation(t *testing.T) {
	f := func(raw []float64, binsRaw uint8) bool {
		bins := int(binsRaw%30) + 1
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		h, err := NewHistogram(xs, -10, 10, bins)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range h.Counts {
			if c < 0 {
				return false
			}
			total += c
		}
		return total == len(xs) && h.N == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
