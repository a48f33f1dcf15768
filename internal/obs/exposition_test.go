package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

// refWriteText is the fmt renderer WriteText replaced, kept as the
// reference its bytes are held to: families sorted by name, series by
// joined label values, every line through fmt.Fprintf and label values
// through %q. It escapes label values as Go literals, not as the text
// format does; the two agree on a backslash and a quote, so it is compared
// on values without a newline, a control byte, a rune Go does not print or
// invalid UTF-8.
func refWriteText(r *Registry, w io.Writer) error {
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
		if err := refFamilyText(f, w); err != nil {
			return err
		}
	}
	return nil
}

func refFamilyText(f *family, w io.Writer) error {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k].m
	}
	f.mu.Unlock()

	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, refEscapeHelp(f.help)); err != nil {
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
		base := f.name + refLabelString(f.labels, values, "", "")
		var err error
		switch m := m.(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "%s %d\n", base, m.Value())
		case CounterFunc:
			_, err = fmt.Fprintf(w, "%s %d\n", base, m())
		case *Gauge:
			_, err = fmt.Fprintf(w, "%s %s\n", base, refFormatFloat(m.Value()))
		case GaugeFunc:
			_, err = fmt.Fprintf(w, "%s %s\n", base, refFormatFloat(m()))
		case *Histogram:
			err = refHistogramText(m, w, f.name, f.labels, values)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func refHistogramText(h *Histogram, w io.Writer, name string, labels, values []string) error {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, n := h.sum, h.n
	h.mu.Unlock()
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = refFormatFloat(h.bounds[i])
		}
		line := name + "_bucket" + refLabelString(labels, values, "le", le)
		if _, err := fmt.Fprintf(w, "%s %d\n", line, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", name+"_sum"+refLabelString(labels, values, "", ""), refFormatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", name+"_count"+refLabelString(labels, values, "", ""), n)
	return err
}

func refLabelString(labels, values []string, extraName, extraValue string) string {
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
		fmt.Fprintf(&b, "%s=%q", l, strings.ReplaceAll(v, "\n", `\n`))
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, strings.ReplaceAll(extraValue, "\n", `\n`))
	}
	b.WriteByte('}')
	return b.String()
}

func refEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func refFormatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// everyKindRegistry holds each series kind WriteText renders, perFamily
// series to a labeled family: counters and counter functions, gauges and
// gauge functions (±Inf, NaN, negative zero, tiny and huge values among
// them), histograms labeled and not, empty and with overflow, an unlabeled
// family, a family with no HELP and one with no series, HELP text with a
// backslash and a newline, and label values empty, with a quote and a
// backslash, and outside ASCII.
func everyKindRegistry(perFamily int) *Registry {
	r := NewRegistry()
	r.NewGauge("up", "Whether the daemon is up.").Set(1)
	r.NewHistogram("wave_seconds", `A help with a backslash \ and a
newline, and "quotes".`, nil).Observe(0.003)
	r.NewHistogram("empty_seconds", "", []float64{1, 2})
	r.NewCounterVec("never_used_total", "A family with no series.", "platform")
	cv := r.NewCounterVec("requests_total", "Requests.", "route", "code")
	cfv := r.NewCounterVec("jobs_total", "Jobs.", "policy")
	gv := r.NewGaugeVec("scale", "Scales.", "platform")
	gfv := r.NewGaugeVec("clock_seconds", "", "platform")
	hv := r.NewHistogramVec("stage_seconds", "Stages.", nil, "platform", "stage")
	bv := r.NewHistogramVec("batch_size", "Batch sizes.", []float64{1, 4, 16, 64, 256}, "platform")
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 5e-324, 1.7976931348623157e308, 1e21, 123456789, 0.1}
	for i := 0; i < perFamily; i++ {
		p := fmt.Sprintf("platform%03d", i)
		if i == 1 {
			p = "" // an empty label value
		}
		if i == 2 {
			p = "plätform-µ" // printable, outside ASCII
		}
		if i == 3 {
			p = `quote"and\backslash` // escaped alike by %q and the text format
		}
		cv.With("/predict", strconv.Itoa(200+i)).Add(int64(i) * 7)
		n := int64(i)<<40 + 3
		cfv.Func(func() int64 { return n }, p)
		gv.With(p).Set(specials[i%len(specials)])
		v := -float64(i) / 3
		gfv.Func(func() float64 { return v }, p)
		h := hv.With(p, "model_eval")
		for k := 0; k <= i%7; k++ {
			h.Observe(math.Pow(10, float64(k-5)) * float64(i+1))
		}
		bv.With(p).Observe(float64(i))
	}
	return r
}

// TestWriteTextMatchesReference holds the streaming writer byte for byte
// to the fmt renderer it replaced, across every series kind, small enough
// to be one write and large enough to be many.
func TestWriteTextMatchesReference(t *testing.T) {
	for _, per := range []int{1, 9, 400} {
		r := everyKindRegistry(per)
		var want, got bytes.Buffer
		if err := refWriteText(r, &want); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteText(&got); err != nil {
			t.Fatal(err)
		}
		if per == 400 && got.Len() < 4*flushBytes {
			t.Fatalf("%d series a family render %d bytes: too few to flush mid-family", per, got.Len())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.String(), want.String()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Fatalf("%d series a family: streaming text differs from the reference at byte %d:\ngot  %q\nwant %q",
				per, i, g[max(0, i-80):min(len(g), i+80)], w[max(0, i-80):min(len(w), i+80)])
		}
		if _, _, err := ParseText(&got); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriteTextAllocsDoNotGrowWithSeries: a scrape's allocations are its
// buffer, its family list and its scratch space, so a hundred series a
// family allocate no more often than one.
func TestWriteTextAllocsDoNotGrowWithSeries(t *testing.T) {
	allocs := func(per int) float64 {
		r := everyKindRegistry(per)
		return testing.AllocsPerRun(20, func() {
			if err := r.WriteText(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, hundred := allocs(1), allocs(100)
	if hundred > one {
		t.Errorf("one WriteText allocates %.0f times at 100 series a family, %.0f at 1", hundred, one)
	}
	t.Logf("one WriteText allocates %.0f times at 1 series a family, %.0f at 100", one, hundred)
}

// lockingWriter calls back into the registry on every write: it registers
// a family (the registry lock), adds a series to every labeled family (the
// family locks), observes every histogram (their locks) and takes the lock
// a function series takes. Had WriteText held any of them across the
// write, the write would never return.
type lockingWriter struct {
	r         *Registry
	hv        *HistogramVec
	gv        *GaugeVec
	platforms []string
	owner     *sync.Mutex
	writes    int
	buf       bytes.Buffer
}

func (w *lockingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.r.NewCounterVec(fmt.Sprintf("late_%d_total", w.writes), "").With().Inc()
	w.gv.With(fmt.Sprintf("late%d", w.writes)).Set(1)
	for _, p := range w.platforms {
		w.hv.With(p).Observe(1)
	}
	w.hv.With(fmt.Sprintf("late%d", w.writes)).Observe(1)
	w.owner.Lock()
	w.owner.Unlock()
	return w.buf.Write(p)
}

// TestWriteTextHoldsNoLockAcrossWrites: a scraper's write may stall for as
// long as it likes without holding up the registry, a family, a histogram
// or the owner a function series reads.
func TestWriteTextHoldsNoLockAcrossWrites(t *testing.T) {
	r := NewRegistry()
	var owner sync.Mutex
	hv := r.NewHistogramVec("h_seconds", "", nil, "platform")
	gv := r.NewGaugeVec("g", "", "platform")
	platforms := make([]string, 800)
	for i := range platforms {
		p := fmt.Sprintf("p%03d", i)
		platforms[i] = p
		hv.With(p).Observe(0.01)
		gv.Func(func() float64 {
			owner.Lock()
			defer owner.Unlock()
			return 1
		}, p)
	}
	w := &lockingWriter{r: r, hv: hv, gv: gv, platforms: platforms, owner: &owner}
	done := make(chan error, 1)
	go func() { done <- r.WriteText(w) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("WriteText holds a lock across a write to its writer")
	}
	if w.writes < 4 {
		t.Fatalf("%d writes: the exposition was never flushed mid-way", w.writes)
	}
	if _, _, err := ParseText(&w.buf); err != nil {
		t.Fatal(err)
	}
}

// TestWriteTextStopsAtAWriteError: the first failed write ends the
// exposition and is what WriteText returns.
func TestWriteTextStopsAtAWriteError(t *testing.T) {
	r := everyKindRegistry(400)
	w := &failingWriter{failAt: 2}
	if err := r.WriteText(w); !errors.Is(err, errWriteFailed) {
		t.Fatalf("WriteText = %v, want the writer's error", err)
	}
	if w.writes != 2 {
		t.Fatalf("%d writes after the failed one; want none", w.writes-2)
	}
}

var errWriteFailed = errors.New("write failed")

type failingWriter struct{ writes, failAt int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes >= w.failAt {
		return 0, errWriteFailed
	}
	return len(p), nil
}

// TestHandlerStreams: GET /metrics on a registry larger than net/http's
// response buffer is chunked, with no Content-Length, and its body is
// WriteText's text.
func TestHandlerStreams(t *testing.T) {
	r := everyKindRegistry(400)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != -1 || len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
		t.Errorf("Content-Length %d, Transfer-Encoding %v: want a chunked body", resp.ContentLength, resp.TransferEncoding)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type %q", ct)
	}
	var want bytes.Buffer
	if err := r.WriteText(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("body (%d bytes) is not WriteText's text (%d bytes)", len(body), want.Len())
	}
}

// TestLabelValueEscaping: platform names with a newline, a tab, a quote, a
// backslash and a byte that is not UTF-8 render as the text format says —
// three escapes, every other byte as it is, U+FFFD for the invalid one —
// and the scrape still parses.
func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	gv := r.NewGaugeVec("predict_virtual_time_seconds", "", "platform")
	for _, name := range []string{"a\nb", "tab\there", `quote"d`, `back\slash`, "bad\xffbyte", "bad\xff\xfe\xfdrun"} {
		gv.With(name).Set(1)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE predict_virtual_time_seconds gauge\n" +
		`predict_virtual_time_seconds{platform="a\nb"} 1` + "\n" +
		`predict_virtual_time_seconds{platform="back\\slash"} 1` + "\n" +
		"predict_virtual_time_seconds{platform=\"bad\uFFFDbyte\"} 1\n" +
		"predict_virtual_time_seconds{platform=\"bad\uFFFDrun\"} 1\n" +
		`predict_virtual_time_seconds{platform="quote\"d"} 1` + "\n" +
		"predict_virtual_time_seconds{platform=\"tab\there\"} 1\n"
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	if _, _, err := ParseText(strings.NewReader(b.String())); err != nil {
		t.Error(err)
	}
}

// TestParseTextRejectsBadLabelValues: an escape the text format does not
// define, invalid UTF-8 and a broken label set are errors; the three
// defined escapes are not.
func TestParseTextRejectsBadLabelValues(t *testing.T) {
	for _, bad := range []string{
		`m{l="a\tb"} 1`,
		`m{l="\xff"} 1`,
		`m{l="a\\nb\"\q"} 1`,
		"m{l=\"\xff\"} 1",
		`m{l="unterminated} 1`,
		`m{l="a"k="b"} 1`,
		`m{l=unquoted} 1`,
		`m{="v"} 1`,
		`m{l="v" 1`,
		`m{l="v\"} 1`,
	} {
		if _, _, err := ParseText(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("ParseText accepted %q", bad)
		}
	}
	for _, good := range []string{
		`m{l="a\\b\"c\nd"} 1`,
		"m{l=\"{}, =\",k=\"é\t\"} 1",
		`m{l="v",} 1`,
		`m{} 1`,
	} {
		if _, _, err := ParseText(strings.NewReader(good + "\n")); err != nil {
			t.Errorf("ParseText refused %q: %v", good, err)
		}
	}
}

// unescapeLabel reads a label value the text format's way: \\, \" and \n
// are its only escapes.
func unescapeLabel(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		if i++; i == len(s) {
			return "", fmt.Errorf("trailing backslash in %q", s)
		}
		switch s[i] {
		case '\\', '"':
			b.WriteByte(s[i])
		case 'n':
			b.WriteByte('\n')
		default:
			return "", fmt.Errorf("undefined escape \\%c in %q", s[i], s)
		}
	}
	return b.String(), nil
}

// FuzzLabelEscape: whatever bytes a label value holds, its rendered text
// parses and unescapes back to the value with each run of invalid UTF-8 as
// one U+FFFD.
func FuzzLabelEscape(f *testing.F) {
	for _, seed := range []string{"", "platform1", "a\nb", "tab\there", `quote"d`, `back\slash`, "bad\xffbyte",
		"\\n", `\"`, "\xed\xa0\x80", "\uFFFD\xff", "\x00\x1f}", "é\xc3"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		r := NewRegistry()
		r.NewGaugeVec("m", "", "l").With(v).Set(1)
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		text := b.String()
		if _, _, err := ParseText(strings.NewReader(text)); err != nil {
			t.Fatalf("value %q: %v in %q", v, err, text)
		}
		const head, tail = "# TYPE m gauge\nm{l=\"", "\"} 1\n"
		if !strings.HasPrefix(text, head) || !strings.HasSuffix(text, tail) {
			t.Fatalf("value %q renders %q", v, text)
		}
		escaped := text[len(head) : len(text)-len(tail)]
		if strings.ContainsRune(escaped, '\n') || !utf8.ValidString(escaped) {
			t.Fatalf("value %q renders a raw newline or invalid UTF-8: %q", v, escaped)
		}
		got, err := unescapeLabel(escaped)
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.ToValidUTF8(v, "\uFFFD"); got != want {
			t.Fatalf("value %q renders %q, which reads back as %q; want %q", v, escaped, got, want)
		}
	})
}
