package experiments

import (
	"strings"
	"testing"

	"prodpred/internal/sched"
	"prodpred/internal/stochastic"
)

// smallBurstyConfig is a scaled-down Platform 2 pipeline for fast tests,
// on a dedicated link.
func smallBurstyConfig(seed int64, runs int) productionConfig {
	spec := burstySpec(seed)
	spec.Net = nil
	return productionConfig{
		spec:         spec,
		n:            300,
		iters:        8,
		runs:         runs,
		gap:          20,
		partStrategy: sched.MeanBalanced,
		maxStrategy:  stochastic.LargestMean,
	}
}

func TestRunProductionSeriesBasics(t *testing.T) {
	cfg := smallBurstyConfig(3, 6)
	recs, err := runProductionSeries(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("records=%d", len(recs))
	}
	prev := 0.0
	for i, r := range recs {
		if r.Start < prev {
			t.Errorf("run %d starts before previous ended", i)
		}
		prev = r.Start
		if r.Actual <= 0 {
			t.Errorf("run %d actual=%g", i, r.Actual)
		}
		if r.Pred.Mean <= 0 {
			t.Errorf("run %d prediction=%v", i, r.Pred)
		}
		if r.Pred.IsPoint() {
			t.Errorf("run %d production prediction should carry spread", i)
		}
		if len(r.LoadsAt) != len(cfg.spec.Machines) {
			t.Errorf("run %d loads=%d", i, len(r.LoadsAt))
		}
	}
}

func TestRunProductionSeriesCaptures(t *testing.T) {
	recs, err := runProductionSeries(smallBurstyConfig(5, 10))
	if err != nil {
		t.Fatal(err)
	}
	m := summarizeRuns(recs)
	// The evaluation's central claim: stochastic intervals capture most
	// production runs and beat point predictions.
	if m.CaptureFrac < 0.5 {
		t.Errorf("capture=%g too low", m.CaptureFrac)
	}
	if m.MaxMeanErr <= m.MaxIntErr {
		t.Errorf("point error %g should exceed interval error %g", m.MaxMeanErr, m.MaxIntErr)
	}
}

func TestRunProductionSeriesValidation(t *testing.T) {
	cfg := smallBurstyConfig(1, 0)
	if _, err := runProductionSeries(cfg); err == nil {
		t.Error("runs=0 should fail")
	}
	cfg = smallBurstyConfig(1, 1)
	cfg.spec.CPU = cfg.spec.CPU[:3]
	if _, err := runProductionSeries(cfg); err == nil {
		t.Error("cpu count mismatch should fail")
	}
}

func TestRunProductionSeriesDeterministic(t *testing.T) {
	a, err := runProductionSeries(smallBurstyConfig(11, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runProductionSeries(smallBurstyConfig(11, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Actual != b[i].Actual || a[i].Pred != b[i].Pred {
			t.Fatalf("run %d nondeterministic: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSummarizeRuns(t *testing.T) {
	recs := []runRecord{
		{Pred: stochastic.New(10, 2), Actual: 11}, // inside
		{Pred: stochastic.New(10, 2), Actual: 14}, // outside by 2 (rel 2/14)
		{Pred: stochastic.New(10, 2), Actual: 10}, // inside, exact mean
	}
	m := summarizeRuns(recs)
	if m.CaptureFrac < 0.66 || m.CaptureFrac > 0.67 {
		t.Errorf("capture=%g", m.CaptureFrac)
	}
	if m.MaxIntErr < 0.14 || m.MaxIntErr > 0.15 {
		t.Errorf("maxIntErr=%g", m.MaxIntErr)
	}
	if m.MaxMeanErr < 0.28 || m.MaxMeanErr > 0.29 { // |14-10|/14
		t.Errorf("maxMeanErr=%g", m.MaxMeanErr)
	}
	empty := summarizeRuns(nil)
	if empty.CaptureFrac != 0 || empty.MeanMeanErr != 0 {
		t.Errorf("empty summary=%+v", empty)
	}
}

func TestRenderHelpers(t *testing.T) {
	recs := []runRecord{
		{Start: 0, Pred: stochastic.New(10, 2), Actual: 11, LoadsAt: []float64{0.5, 0.6, 0.7, 0.8}},
		{Start: 50, Pred: stochastic.New(12, 1), Actual: 20, LoadsAt: []float64{0.1, 0.2, 0.3, 0.4}},
	}
	out := renderRunSeries(recs)
	for _, want := range []string{"predicted", "actual", "NO", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("renderRunSeries missing %q:\n%s", want, out)
		}
	}
	trace := renderLoadTrace(recs, 0)
	if !strings.Contains(trace, "*") {
		t.Errorf("load trace missing points:\n%s", trace)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("a", "bb")
	tb.AddRow("x")
	tb.AddRow("longer", "y", "extra-dropped")
	tb.AddRowf(1.23456789, 7)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines=%d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "a") || !strings.Contains(lines[1], "---") {
		t.Errorf("header/sep wrong:\n%s", out)
	}
	if !strings.Contains(out, "1.235") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
	if strings.Contains(out, "extra-dropped") {
		t.Error("extra cell should be dropped")
	}
}

func TestRenderSeriesEdgeCases(t *testing.T) {
	if out := RenderSeries(nil, nil, 10, 5); !strings.Contains(out, "no data") {
		t.Errorf("empty render=%q", out)
	}
	// Constant series must not divide by zero.
	out := RenderSeries([]float64{1, 2, 3}, []float64{5, 5, 5}, 20, 5)
	if !strings.Contains(out, "*") {
		t.Errorf("constant render missing points:\n%s", out)
	}
	// Tiny dimensions clamp.
	out = RenderSeries([]float64{0, 1}, []float64{0, 1}, 1, 1)
	if len(out) == 0 {
		t.Error("clamped render empty")
	}
}
