package workload

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"prodpred/internal/load"
	"prodpred/internal/timeseries"
)

// TraceVersion is the current trace interchange format version.
const TraceVersion = 1

// TraceFormat is the magic format tag in every trace header.
const TraceFormat = "prodpred-trace"

// TraceHeader is the first line of a trace file: a single JSON object
// naming the format version, provenance (scenario name + spec hash + seed),
// and the sampling grid. The samples follow, one availability value per
// line, at implied timestamps T0 + i·DT.
type TraceHeader struct {
	Format   string  `json:"format"`
	Version  int     `json:"version"`
	Scenario string  `json:"scenario,omitempty"`
	SpecHash string  `json:"specHash,omitempty"`
	Seed     int64   `json:"seed"`
	Machine  int     `json:"machine"` // machine index; -1 = network process
	DT       float64 `json:"dt"`
	T0       float64 `json:"t0"`
	Samples  int     `json:"samples"`
}

func (h *TraceHeader) validate() error {
	if h.Format != TraceFormat {
		return fmt.Errorf("workload: not a trace (format %q, want %q)", h.Format, TraceFormat)
	}
	if h.Version != TraceVersion {
		return fmt.Errorf("workload: unsupported trace version %d (want %d)", h.Version, TraceVersion)
	}
	if !(h.DT > 0) {
		return fmt.Errorf("workload: trace dt %g must be positive", h.DT)
	}
	if h.Samples <= 0 {
		return errors.New("workload: trace has no samples")
	}
	return nil
}

// WriteTrace streams a trace to w: the JSON header line, then one sample
// per line formatted with FormatFloat(.., 'g', -1, 64) so every float64
// round-trips bit-exactly. len(vals) must equal h.Samples.
func WriteTrace(w io.Writer, h TraceHeader, vals []float64) error {
	if h.Format == "" {
		h.Format = TraceFormat
	}
	if h.Version == 0 {
		h.Version = TraceVersion
	}
	h.Samples = len(vals)
	if err := h.validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(&h)
	if err != nil {
		return err
	}
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	for _, v := range vals {
		if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace written by WriteTrace, checking the header and
// the sample count. The header's count is a claim, not a size: the values
// grow as samples arrive, and a sample past the claimed count is an error
// at once.
func ReadTrace(r io.Reader) (TraceHeader, []float64, error) {
	var h TraceHeader
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil && err != io.EOF {
		return h, nil, fmt.Errorf("workload: read trace header: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		return h, nil, fmt.Errorf("workload: parse trace header: %w", err)
	}
	if err := h.validate(); err != nil {
		return h, nil, err
	}
	var vals []float64
	sc := bufio.NewScanner(br)
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if len(vals) == h.Samples {
			return h, nil, fmt.Errorf("workload: trace has more samples than the %d its header says", h.Samples)
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return h, nil, fmt.Errorf("workload: trace sample %d: %w", len(vals), err)
		}
		vals = append(vals, v)
	}
	if err := sc.Err(); err != nil {
		return h, nil, err
	}
	if len(vals) != h.Samples {
		return h, nil, fmt.Errorf("workload: trace has %d samples, header says %d", len(vals), h.Samples)
	}
	return h, vals, nil
}

// TraceProcess turns a parsed trace back into a load.Process on the exact
// sampling grid it was recorded on. Because the header's DT is an exact
// binary float for every library scenario, the replayed process returns
// bit-identical values at every tick the original generator was sampled
// on.
func TraceProcess(h TraceHeader, vals []float64) (load.Process, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	if len(vals) != h.Samples {
		return nil, fmt.Errorf("workload: trace has %d samples, header says %d", len(vals), h.Samples)
	}
	s := timeseries.NewSeries(len(vals))
	for i, v := range vals {
		if err := s.Append(h.T0+float64(i)*h.DT, v); err != nil {
			return nil, err
		}
	}
	return load.NewUniformTrace(s, h.DT)
}

// CaptureTrace samples p on [t0, t1] every p.Interval() seconds and
// returns a trace carrying the given provenance, ready for WriteTrace.
func CaptureTrace(p load.Process, scenario, specHash string, seed int64, machine int, t0, t1 float64) (TraceHeader, []float64, error) {
	dt := p.Interval()
	s, err := load.Record(p, t0, t1, dt)
	if err != nil {
		return TraceHeader{}, nil, err
	}
	h := TraceHeader{
		Format:   TraceFormat,
		Version:  TraceVersion,
		Scenario: scenario,
		SpecHash: specHash,
		Seed:     seed,
		Machine:  machine,
		DT:       dt,
		T0:       t0,
		Samples:  s.Len(),
	}
	return h, s.Values(), nil
}
