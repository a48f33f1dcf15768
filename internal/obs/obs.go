// Package obs is the observability layer of the prediction stack: a
// dependency-free, goroutine-safe metrics registry with Prometheus
// text-format exposition.
//
// The paper's whole argument is that production systems must report
// distributions, not points (§2.1) — obs applies that standard to the
// serving stack itself. A Registry holds metric families (counters, gauges,
// fixed-bucket latency histograms); internal/predict registers per-platform
// pipeline counters and per-stage latency histograms on it, the HTTP layer
// adds request metrics via Middleware, and GET /metrics exposes everything
// in the Prometheus text format (version 0.0.4) so any standard scraper can
// collect it.
//
// Design constraints, in order:
//
//   - stdlib only (the module is fully offline);
//   - goroutine-safe: counters and gauges are single atomics, histograms
//     take a short mutex per observation, and a value its owner already
//     holds is a function series (CounterFunc, GaugeFunc) read at
//     exposition, so nothing copies it on the request path;
//   - nil-safe: every method on a nil *Counter, *Gauge, or *Histogram is a
//     no-op, so instrumented code runs unchanged (and nearly free) when no
//     registry is configured;
//   - deterministic exposition: families and series are emitted in sorted
//     order, so two registries holding the same state render byte-identical
//     text.
//
// All durations are wall-clock seconds. The prediction pipeline's *virtual*
// clock is a separate notion — it is exported as the gauge
// predict_virtual_time_seconds, never mixed into latency histograms.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind enumerates the metric family types the registry can hold.
type Kind int

// Family kinds, matching the Prometheus text-format TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// DefLatencyBuckets are the default histogram upper bounds for request and
// stage latencies, in wall-clock seconds: roughly exponential from 100 µs
// to 10 s, wide enough for an in-process call and a cold full-platform
// report alike. A final +Inf bucket is always implicit.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n; negative n is ignored (counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an arbitrary float64 metric that can go up and down. All methods
// are safe for concurrent use and no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the current value, atomically: concurrent Adds (the HTTP
// in-flight gauge) never lose updates.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket latency histogram: observation counts over
// explicit upper bounds (plus an implicit +Inf overflow bucket), a running
// sum, and quantile snapshots by linear interpolation within buckets — the
// standard Prometheus histogram shape, answerable in-process without a
// query engine. internal/stats.Histogram is the offline sibling (linear
// bins over a known range, for load-shape analysis); latency spans four
// orders of magnitude, so exposition uses exponential bounds instead, and
// exact quantiles over raw samples remain stats.Quantile's job.
//
// All methods are safe for concurrent use and no-ops on a nil receiver.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf implicit
	counts []uint64  // len(bounds)+1, last = overflow
	sum    float64
	n      uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one value (a latency in seconds, for the serving stack).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.n++
}

// HistSnapshot is a consistent point-in-time read of a Histogram.
type HistSnapshot struct {
	// Count is the total number of observations; Sum their sum.
	Count uint64
	Sum   float64
	// Mean is Sum/Count (0 when empty).
	Mean float64
	// P50, P95, P99 are quantile estimates by linear interpolation within
	// the matching bucket; values in the +Inf overflow bucket clamp to the
	// largest finite bound.
	P50, P95, P99 float64
}

// Snapshot returns the histogram's count, sum, mean, and p50/p95/p99
// estimates under one lock acquisition.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.n, Sum: h.sum}
	if h.n == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.n)
	s.P50 = h.quantileLocked(0.50)
	s.P95 = h.quantileLocked(0.95)
	s.P99 = h.quantileLocked(0.99)
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) by interpolation within the
// matching bucket. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		prev := cum
		cum += float64(c)
		if cum < target || c == 0 {
			continue
		}
		if i == len(h.bounds) {
			// Overflow bucket: no finite upper edge to interpolate toward.
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*(target-prev)/float64(c)
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// family is one named metric family: a type, a label schema, and a series
// per distinct label-value combination.
type family struct {
	name, help string
	kind       Kind
	labels     []string
	bounds     []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // *Counter | *Gauge | *Histogram | CounterFunc | GaugeFunc, keyed by joined label values
}

// CounterFunc and GaugeFunc are series whose value their owner already
// holds: exposition calls them, with no registry or family lock held, so
// the owner may take its own locks inside. A counter function must never
// decrease while its owner lives.
type (
	CounterFunc func() int64
	GaugeFunc   func() float64
)

// labelKey joins label values with an unprintable separator so distinct
// tuples cannot collide.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

func (f *family) get(values []string, make func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := labelKey(values)
	if m, ok := f.series[key]; ok {
		return m
	}
	m := make()
	f.series[key] = m
	return m
}

// setFunc installs a function series for one label-value tuple, replacing
// whatever series the tuple had: the newest owner of a name is the one read.
func (f *family) setFunc(values []string, fn any) {
	f.checkValues(values)
	f.mu.Lock()
	f.series[labelKey(values)] = fn
	f.mu.Unlock()
}

// Registry is a set of metric families. All methods are safe for concurrent
// use. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register get-or-creates a family, panicking on a name reused with a
// different type or label schema — a programming error caught at startup,
// Prometheus-client style.
func (r *Registry) register(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validMetricName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || labelKey(f.labels) != labelKey(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v%v (was %v%v)",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: make(map[string]any),
	}
	r.families[name] = f
	return f
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// NewGauge registers (or finds) an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil, nil)
	return f.get(nil, func() any { return &Gauge{} }).(*Gauge)
}

// NewHistogram registers (or finds) an unlabeled histogram over the given
// upper bounds (DefLatencyBuckets when nil).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	f := r.register(name, help, KindHistogram, nil, bounds)
	return f.get(nil, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// CounterVec is a counter family with a fixed label schema.
type CounterVec struct{ f *family }

// NewCounterVec registers (or finds) a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil)}
}

// With returns the counter for one label-value tuple, creating it on first
// use. The number of values must match the registered label schema.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || v.f == nil {
		return nil
	}
	v.f.checkValues(values)
	return v.f.get(values, func() any { return &Counter{} }).(*Counter)
}

// Func makes fn the series of one label-value tuple (see CounterFunc).
func (v *CounterVec) Func(fn CounterFunc, values ...string) { v.f.setFunc(values, fn) }

// GaugeVec is a gauge family with a fixed label schema.
type GaugeVec struct{ f *family }

// NewGaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, KindGauge, labels, nil)}
}

// With returns the gauge for one label-value tuple, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil || v.f == nil {
		return nil
	}
	v.f.checkValues(values)
	return v.f.get(values, func() any { return &Gauge{} }).(*Gauge)
}

// Func makes fn the series of one label-value tuple (see GaugeFunc).
func (v *GaugeVec) Func(fn GaugeFunc, values ...string) { v.f.setFunc(values, fn) }

// HistogramVec is a histogram family with a fixed label schema.
type HistogramVec struct{ f *family }

// NewHistogramVec registers (or finds) a labeled histogram family over the
// given upper bounds (DefLatencyBuckets when nil).
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels, bounds)}
}

// With returns the histogram for one label-value tuple, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	v.f.checkValues(values)
	return v.f.get(values, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

func (f *family) checkValues(values []string) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q got %d label values for labels %v",
			f.name, len(values), f.labels))
	}
}

// MetricNames returns every registered family name, sorted — the catalog
// contract OPERATIONS.md is checked against.
func (r *Registry) MetricNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteText renders every family in the Prometheus text format (0.0.4):
// families sorted by name, series sorted by label values, so equal state
// renders byte-identical.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()
	for _, f := range fams {
		if err := f.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeText(w io.Writer) error {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.Unlock()

	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for i, m := range series {
		values := strings.Split(keys[i], "\x1f")
		if keys[i] == "" {
			values = nil
		}
		base := f.name + labelString(f.labels, values, "", "")
		var err error
		switch m := m.(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "%s %d\n", base, m.Value())
		case CounterFunc:
			_, err = fmt.Fprintf(w, "%s %d\n", base, m())
		case *Gauge:
			_, err = fmt.Fprintf(w, "%s %s\n", base, formatFloat(m.Value()))
		case GaugeFunc:
			_, err = fmt.Fprintf(w, "%s %s\n", base, formatFloat(m()))
		case *Histogram:
			err = m.writeText(w, f.name, f.labels, values)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (h *Histogram) writeText(w io.Writer, name string, labels, values []string) error {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, n := h.sum, h.n
	h.mu.Unlock()
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		line := name + "_bucket" + labelString(labels, values, "le", le)
		if _, err := fmt.Fprintf(w, "%s %d\n", line, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", name+"_sum"+labelString(labels, values, "", ""), formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", name+"_count"+labelString(labels, values, "", ""), n)
	return err
}

// labelString renders {a="x",b="y"} (plus an optional extra pair), or ""
// when there are no labels at all.
func labelString(labels, values []string, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		fmt.Fprintf(&b, "%s=%q", l, escapeLabel(v))
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel handles backslash and newline; %q adds the quote escaping.
func escapeLabel(s string) string {
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry in the Prometheus text exposition format —
// what cmd/predictd mounts at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = io.WriteString(w, b.String())
	})
}

// ParseText is a minimal validating parser for the Prometheus text format:
// it returns the TYPE-declared families (name -> type) and the number of
// sample lines, and errors on any malformed line. The daemon's and the API's
// tests use it to assert that GET /metrics stays parseable.
func ParseText(r io.Reader) (families map[string]string, samples int, err error) {
	families = make(map[string]string)
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, err
	}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, samples, fmt.Errorf("obs: line %d: unknown comment form %q", ln+1, line)
			}
			if len(fields) >= 4 && fields[1] == "TYPE" {
				families[fields[2]] = fields[3]
			}
			continue
		}
		name := line
		rest := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, samples, fmt.Errorf("obs: line %d: unbalanced braces: %q", ln+1, line)
			}
			name, rest = line[:i], strings.TrimSpace(line[j+1:])
		} else if i := strings.IndexAny(line, " \t"); i >= 0 {
			name, rest = line[:i], strings.TrimSpace(line[i+1:])
		}
		if !validMetricName(name) {
			return nil, samples, fmt.Errorf("obs: line %d: invalid metric name %q", ln+1, name)
		}
		value := strings.Fields(rest)
		if len(value) == 0 {
			return nil, samples, fmt.Errorf("obs: line %d: sample without value: %q", ln+1, line)
		}
		if _, err := strconv.ParseFloat(value[0], 64); err != nil && value[0] != "+Inf" && value[0] != "-Inf" && value[0] != "NaN" {
			return nil, samples, fmt.Errorf("obs: line %d: bad sample value %q", ln+1, value[0])
		}
		samples++
	}
	return families, samples, nil
}
