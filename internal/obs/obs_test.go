package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("requests_total", "reqs").With()
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if c.Value() != 5 {
		t.Errorf("counter=%d, want 5", c.Value())
	}
	g := r.NewGauge("queue_depth", "depth")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Errorf("gauge=%g, want 1.5", g.Value())
	}
	// Get-or-create: same name returns the same metric.
	if r.NewCounterVec("requests_total", "reqs").With().Value() != 5 {
		t.Error("re-registration did not return the existing counter")
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil metrics must read as zero")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram snapshot must be empty")
	}
	var cv *CounterVec
	var gv *GaugeVec
	var hv *HistogramVec
	cv.With("x").Inc()
	gv.With("x").Set(1)
	hv.With("x").Observe(1)
	var m *HTTPMiddleware
	if m.Wrap("r", nil) != nil {
		t.Error("nil middleware Wrap must pass through")
	}
}

func TestRegisterConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("m", "").With()
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.NewGauge("m", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name must panic")
		}
	}()
	r.NewCounterVec("9bad name", "").With()
}

func TestWriteTextDeterministicAndParses(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.NewCounterVec("predict_predictions_total", "preds", "platform").With("platform2").Add(7)
		r.NewCounterVec("predict_predictions_total", "preds", "platform").With("platform1").Add(3)
		r.NewGaugeVec("predict_calibration_scale", "scale", "platform").With("platform1").Set(1.25)
		h := r.NewHistogramVec("stage_seconds", "stages", []float64{0.001, 0.01}, "stage")
		h.With("model_eval").Observe(0.0005)
		h.With("model_eval").Observe(0.5)
		r.NewGaugeVec("uptime_seconds", "uptime").Func(func() float64 { return 42 })
		return r
	}
	var a, b strings.Builder
	if err := build().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("equal registries rendered different text")
	}
	text := a.String()
	for _, want := range []string{
		`predict_predictions_total{platform="platform1"} 3`,
		`predict_predictions_total{platform="platform2"} 7`,
		`predict_calibration_scale{platform="platform1"} 1.25`,
		`stage_seconds_bucket{stage="model_eval",le="0.001"} 1`,
		`stage_seconds_bucket{stage="model_eval",le="+Inf"} 2`,
		`stage_seconds_count{stage="model_eval"} 2`,
		`# TYPE stage_seconds histogram`,
		`uptime_seconds 42`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	fams, samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if len(fams) != 4 || samples == 0 {
		t.Errorf("parsed %d families, %d samples", len(fams), samples)
	}
	if fams["stage_seconds"] != "histogram" || fams["predict_predictions_total"] != "counter" {
		t.Errorf("family types: %v", fams)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"metric_without_value\n",
		"metric one two\nmetric{unbalanced 3\n",
		"9leading_digit 3\n",
		"m 3\n# BOGUS comment\n",
	} {
		if _, _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText accepted malformed input %q", bad)
		}
	}
}

func TestMetricNames(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("b_total", "").With()
	r.NewGauge("a_gauge", "")
	names := r.MetricNames()
	if len(names) != 2 || names[0] != "a_gauge" || names[1] != "b_total" {
		t.Errorf("names=%v", names)
	}
}

// TestConcurrentUse hammers one registry from many goroutines under -race:
// counters, gauges, histogram observations, vec series creation, and
// exposition all at once.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("c_total", "").With()
	g := r.NewGauge("g", "")
	hv := r.NewHistogramVec("h_seconds", "", nil, "stage")
	cv := r.NewCounterVec("cv_total", "", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stage := []string{"read", "forecast", "eval"}[w%3]
			for i := 0; i < 500; i++ {
				c.Inc()
				g.Set(float64(i))
				hv.With(stage).Observe(float64(i) * 1e-4)
				cv.With(stage).Inc()
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WriteText(&sb); err != nil {
						t.Error(err)
						return
					}
					if _, _, err := ParseText(strings.NewReader(sb.String())); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8*500 {
		t.Errorf("counter=%d, want %d", c.Value(), 8*500)
	}
}

// TestFuncSeries: a function series is read at exposition — a counter's as
// an integer — the newest function for a label tuple is the one read, and
// it runs with no registry or family lock held, so it may use the registry
// itself.
func TestFuncSeries(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("jobs_total", "jobs", "policy")
	cv.Func(func() int64 { return 1 }, "mean")
	cv.Func(func() int64 { return 1<<53 + 1 }, "mean")
	gv := r.NewGaugeVec("clock_seconds", "clock", "platform")
	gv.Func(func() float64 {
		gv.With("other").Set(2) // the family's own lock
		r.NewCounterVec("late_total", "").With().Inc()
		return 180.5
	}, "p1")
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`clock_seconds{platform="p1"} 180.5`,
		`jobs_total{policy="mean"} 9007199254740993`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}
	if _, _, err := ParseText(strings.NewReader(b.String())); err != nil {
		t.Error(err)
	}
}
