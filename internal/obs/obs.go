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
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
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
// explicit upper bounds (plus an implicit +Inf overflow bucket) and a
// running sum — the standard Prometheus histogram shape. Quantiles are the
// scraper's to estimate from the exposed buckets; in process a histogram
// reads only its count and sum (Snapshot). internal/stats.Histogram is the
// offline sibling (linear bins over a known range, for load-shape
// analysis); latency spans four orders of magnitude, so exposition uses
// exponential bounds instead, and exact quantiles over raw samples remain
// stats.Quantile's job.
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

// HistSnapshot is a consistent point-in-time read of a Histogram: the
// total number of observations and their sum.
type HistSnapshot struct {
	Count uint64
	Sum   float64
}

// Snapshot returns the histogram's count and sum under one lock
// acquisition.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{Count: h.n, Sum: h.sum}
}

// family is one named metric family: a type, a label schema, and a series
// per distinct label-value combination.
type family struct {
	name, help string
	kind       Kind
	labels     []string
	bounds     []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series // keyed by joined label values
	sorted []*series          // the same series in key order, for exposition
}

// series is one label-value tuple of a family and its metric. A published
// series is never modified: setFunc replaces it, so exposition may read the
// series it copied out after dropping the family lock.
type series struct {
	key    string
	values []string
	m      any // *Counter | *Gauge | *Histogram | CounterFunc | GaugeFunc
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
	if s, ok := f.series[key]; ok {
		return s.m
	}
	m := make()
	f.putLocked(key, values, m)
	return m
}

// setFunc installs a function series for one label-value tuple, replacing
// whatever series the tuple had: the newest owner of a name is the one read.
func (f *family) setFunc(values []string, fn any) {
	f.checkValues(values)
	f.mu.Lock()
	f.putLocked(labelKey(values), values, fn)
	f.mu.Unlock()
}

// putLocked publishes m as the series of key, in its place in key order.
func (f *family) putLocked(key string, values []string, m any) {
	s := &series{key: key, values: append([]string(nil), values...), m: m}
	i, found := slices.BinarySearchFunc(f.sorted, key, func(s *series, key string) int {
		return strings.Compare(s.key, key)
	})
	if found {
		f.sorted[i] = s
	} else {
		f.sorted = slices.Insert(f.sorted, i, s)
	}
	f.series[key] = s
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
		series: make(map[string]*series),
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

// flushBytes is how much text WriteText gathers before it writes: a
// 192-tenant exposition (2.4 MB) goes out in about 75 writes, and a scrape
// holds no more text than this whatever the fleet's size.
const flushBytes = 32 << 10

// WriteText renders every family in the Prometheus text format (0.0.4):
// families sorted by name, series sorted by label values, so equal state
// renders byte-identical. Lines are appended into one buffer that goes to w
// whenever it passes flushBytes. No lock is held across a write to w: a
// family's series, a histogram's buckets and a function series' value are
// copied or read first, so a slow reader stalls no writer of the registry
// and no owner a function series reads.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	slices.SortFunc(fams, func(a, b *family) int { return strings.Compare(a.name, b.name) })
	t := textWriter{w: w, buf: make([]byte, 0, 2*flushBytes)}
	for _, f := range fams {
		t.family(f)
	}
	t.flush()
	return t.err
}

// textWriter is one exposition in progress: the text not yet written and
// scratch space reused across series, so a scrape allocates the same
// handful of times whatever the series count. After a failed write it
// writes nothing more and starts no further family.
type textWriter struct {
	w      io.Writer
	buf    []byte
	err    error
	series []*series // the family being rendered, copied under its lock
	counts []uint64  // the histogram being rendered, copied under its lock
	labels []byte    // the series' escaped name="value" pairs
}

func (t *textWriter) flush() {
	if t.err == nil && len(t.buf) > 0 {
		_, t.err = t.w.Write(t.buf)
	}
	t.buf = t.buf[:0]
}

// endLine ends the line in the buffer and writes the buffer once it has
// passed flushBytes. Callers hold no lock here.
func (t *textWriter) endLine() {
	t.buf = append(t.buf, '\n')
	if len(t.buf) >= flushBytes {
		t.flush()
	}
}

func (t *textWriter) family(f *family) {
	if t.err != nil {
		return
	}
	f.mu.Lock()
	if cap(t.series) < len(f.sorted) {
		t.series = make([]*series, 0, 2*len(f.sorted))
	}
	t.series = append(t.series[:0], f.sorted...)
	f.mu.Unlock()

	if f.help != "" {
		t.buf = append(t.buf, "# HELP "...)
		t.buf = append(t.buf, f.name...)
		t.buf = append(t.buf, ' ')
		t.buf = append(t.buf, helpEscaper.Replace(f.help)...)
		t.endLine()
	}
	t.buf = append(t.buf, "# TYPE "...)
	t.buf = append(t.buf, f.name...)
	t.buf = append(t.buf, ' ')
	t.buf = append(t.buf, f.kind.String()...)
	t.endLine()
	for _, s := range t.series {
		t.labels = t.labels[:0]
		for i, l := range f.labels {
			if i > 0 {
				t.labels = append(t.labels, ',')
			}
			t.labels = append(t.labels, l...)
			t.labels = append(t.labels, `="`...)
			if i < len(s.values) {
				t.labels = appendLabelValue(t.labels, s.values[i])
			}
			t.labels = append(t.labels, '"')
		}
		switch m := s.m.(type) {
		case *Counter:
			t.sampleName(f.name, "")
			t.buf = strconv.AppendInt(t.buf, m.Value(), 10)
		case CounterFunc:
			t.sampleName(f.name, "")
			t.buf = strconv.AppendInt(t.buf, m(), 10)
		case *Gauge:
			t.sampleName(f.name, "")
			t.buf = strconv.AppendFloat(t.buf, m.Value(), 'g', -1, 64)
		case GaugeFunc:
			t.sampleName(f.name, "")
			t.buf = strconv.AppendFloat(t.buf, m(), 'g', -1, 64)
		case *Histogram:
			t.histogram(f.name, m)
			continue
		}
		t.endLine()
	}
}

// sampleName appends a sample's name, its suffix, the series' labels and
// the space before the value.
func (t *textWriter) sampleName(name, suffix string) {
	t.buf = append(t.buf, name...)
	t.buf = append(t.buf, suffix...)
	if len(t.labels) > 0 {
		t.buf = append(t.buf, '{')
		t.buf = append(t.buf, t.labels...)
		t.buf = append(t.buf, '}')
	}
	t.buf = append(t.buf, ' ')
}

func (t *textWriter) histogram(name string, h *Histogram) {
	h.mu.Lock()
	t.counts = append(t.counts[:0], h.counts...)
	sum, n := h.sum, h.n
	h.mu.Unlock()
	var cum uint64
	for i, c := range t.counts {
		cum += c
		t.buf = append(t.buf, name...)
		t.buf = append(t.buf, "_bucket{"...)
		if len(t.labels) > 0 {
			t.buf = append(t.buf, t.labels...)
			t.buf = append(t.buf, ',')
		}
		t.buf = append(t.buf, `le="`...)
		if i < len(h.bounds) {
			t.buf = strconv.AppendFloat(t.buf, h.bounds[i], 'g', -1, 64)
		} else {
			t.buf = append(t.buf, "+Inf"...)
		}
		t.buf = append(t.buf, `"} `...)
		t.buf = strconv.AppendUint(t.buf, cum, 10)
		t.endLine()
	}
	t.sampleName(name, "_sum")
	t.buf = strconv.AppendFloat(t.buf, sum, 'g', -1, 64)
	t.endLine()
	t.sampleName(name, "_count")
	t.buf = strconv.AppendUint(t.buf, n, 10)
	t.endLine()
}

// helpEscaper escapes HELP text as the text format asks: backslash and
// newline.
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// appendLabelValue appends a label value as the text format defines it:
// backslash, double quote and newline escaped as \\, \" and \n, every
// other byte as it is, and each run of bytes that is not UTF-8 as one
// U+FFFD, which is what strings.ToValidUTF8 makes of it.
func appendLabelValue(b []byte, s string) []byte {
	invalid := false
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			_, size := utf8.DecodeRuneInString(s[i:])
			if size == 1 {
				if !invalid {
					b = append(b, "\uFFFD"...)
				}
				invalid = true
				i++
				continue
			}
			b = append(b, s[i:i+size]...)
			i += size
			invalid = false
			continue
		}
		invalid = false
		switch c {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
		i++
	}
	return b
}

// Handler serves the registry in the Prometheus text exposition format —
// what cmd/predictd mounts at GET /metrics. The text is streamed to the
// connection as WriteText renders it; a body larger than net/http's buffer
// is sent chunked, with no Content-Length. A write error means the scraper
// went away, and there is nobody left to tell.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// ParseText is a minimal validating parser for the Prometheus text format:
// it returns the TYPE-declared families (name -> type) and the number of
// sample lines, and errors on any malformed line, a label value that is
// not UTF-8 or holds an escape other than \\, \" and \n among them. The
// daemon's and the API's tests use it to assert that GET /metrics stays
// parseable.
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
			n, err := labelsLen(line[i+1:])
			if err != nil {
				return nil, samples, fmt.Errorf("obs: line %d: %v: %q", ln+1, err, line)
			}
			name, rest = line[:i], strings.TrimSpace(line[i+1+n:])
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

// labelsLen returns the length of the label set s starts with, through its
// closing brace: name="value" pairs separated by commas (one may end the
// set), each value UTF-8 with no escape but \\, \" and \n.
func labelsLen(s string) (int, error) {
	i := 0
	for i < len(s) && s[i] != '}' {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || !validMetricName(s[i:i+eq]) {
			return 0, errors.New("malformed label name")
		}
		i += eq + 1
		if i == len(s) || s[i] != '"' {
			return 0, errors.New("unquoted label value")
		}
		start := i + 1
		for i = start; i < len(s) && s[i] != '"'; i++ {
			if s[i] != '\\' {
				continue
			}
			i++
			if i == len(s) || (s[i] != '\\' && s[i] != '"' && s[i] != 'n') {
				return 0, errors.New("undefined escape in label value")
			}
		}
		if i == len(s) {
			return 0, errors.New("unterminated label value")
		}
		if !utf8.ValidString(s[start:i]) {
			return 0, errors.New("label value is not UTF-8")
		}
		i++ // past the closing quote
		if i < len(s) && s[i] == ',' {
			i++
		} else if i < len(s) && s[i] != '}' {
			return 0, errors.New("label pairs not separated by a comma")
		}
	}
	if i == len(s) {
		return 0, errors.New("unbalanced braces")
	}
	return i + 1, nil
}
