package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTraceRoundTripBitIdentical(t *testing.T) {
	sc, _ := Lookup("heavy-tail-batch")
	p, err := sc.Machine(1, 321)
	if err != nil {
		t.Fatal(err)
	}
	h, vals, err := CaptureTrace(p, sc.Name, sc.Hash(), 321, 1, 0, 599)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, h, vals); err != nil {
		t.Fatal(err)
	}
	h2, vals2, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Fatalf("header changed in round trip:\n  wrote %+v\n  read  %+v", h, h2)
	}
	if len(vals2) != len(vals) {
		t.Fatalf("sample count %d -> %d", len(vals), len(vals2))
	}
	for i := range vals {
		if vals[i] != vals2[i] {
			t.Fatalf("sample %d changed: %v -> %v", i, vals[i], vals2[i])
		}
	}
	// Replaying through TraceProcess must reproduce the generator exactly
	// at every tick it was sampled on.
	rp, err := TraceProcess(h2, vals2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(vals); i++ {
		tt := h.T0 + float64(i)*h.DT
		if got, want := rp.At(tt), p.At(tt); got != want {
			t.Fatalf("replay diverges at t=%g: %v vs %v", tt, got, want)
		}
	}
}

func TestReadTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not a trace":     "time,value\n0,0.5\n",
		"wrong format":    `{"format":"other","version":1,"seed":1,"machine":0,"dt":1,"t0":0,"samples":1}` + "\n0.5\n",
		"wrong version":   `{"format":"prodpred-trace","version":9,"seed":1,"machine":0,"dt":1,"t0":0,"samples":1}` + "\n0.5\n",
		"bad dt":          `{"format":"prodpred-trace","version":1,"seed":1,"machine":0,"dt":0,"t0":0,"samples":1}` + "\n0.5\n",
		"count mismatch":  `{"format":"prodpred-trace","version":1,"seed":1,"machine":0,"dt":1,"t0":0,"samples":3}` + "\n0.5\n0.6\n",
		"extra sample":    `{"format":"prodpred-trace","version":1,"seed":1,"machine":0,"dt":1,"t0":0,"samples":1}` + "\n0.5\n0.6\n",
		"bad sample":      `{"format":"prodpred-trace","version":1,"seed":1,"machine":0,"dt":1,"t0":0,"samples":1}` + "\nnope\n",
		"unknown hdr key": `{"format":"prodpred-trace","version":1,"seed":1,"machine":0,"dt":1,"t0":0,"samples":1,"extra":true}` + "\n0.5\n",
	}
	for name, data := range cases {
		if _, _, err := ReadTrace(strings.NewReader(data)); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}

// TestReadTraceHugeHeaderCount: a header claiming more samples than memory
// holds is refused like any other count mismatch — the claim never sizes an
// allocation.
func TestReadTraceHugeHeaderCount(t *testing.T) {
	for _, samples := range []string{"9223372036854775807", "100000000000"} {
		data := `{"format":"prodpred-trace","version":1,"seed":1,"machine":0,"dt":1,"t0":0,"samples":` + samples + "}\n0.5\n0.6\n"
		_, _, err := ReadTrace(strings.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "has 2 samples") {
			t.Errorf("samples %s: err = %v, want a count mismatch", samples, err)
		}
	}
}

// FuzzReadTrace: ReadTrace never panics, and a trace it accepts comes back
// from WriteTrace → ReadTrace with the same header and bit-identical values.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte(`{"format":"prodpred-trace","version":1,"seed":1,"machine":0,"dt":1,"t0":0,"samples":2}` + "\n0.5\n-0\n"))
	f.Add([]byte(`{"format":"prodpred-trace","version":1,"scenario":"x","seed":-3,"machine":-1,"dt":0.25,"t0":5,"samples":1}` + "\nNaN\n"))
	f.Add([]byte(`{"format":"prodpred-trace","version":1,"seed":1,"machine":0,"dt":1,"t0":0,"samples":9223372036854775807}` + "\n0.5\n"))
	f.Add([]byte(`{"format":"prodpred-trace","version":1,"seed":1,"machine":0,"dt":1,"t0":0,"samples":1}` + "\n0x1p-3\n\n1e400\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, vals, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, h, vals); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		h2, vals2, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("written trace does not read: %v\n%s", err, buf.Bytes())
		}
		if h2 != h || len(vals2) != len(vals) {
			t.Fatalf("round trip changed the trace: %+v (%d values) -> %+v (%d values)", h, len(vals), h2, len(vals2))
		}
		for i := range vals {
			if math.Float64bits(vals2[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("sample %d changed bits: %v -> %v", i, vals[i], vals2[i])
			}
		}
	})
}

func TestWriteTraceFillsDefaults(t *testing.T) {
	var buf bytes.Buffer
	h := TraceHeader{Seed: 1, Machine: 0, DT: 1}
	if err := WriteTrace(&buf, h, []float64{0.25, 0.5}); err != nil {
		t.Fatal(err)
	}
	h2, vals, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Format != TraceFormat || h2.Version != TraceVersion || h2.Samples != 2 || len(vals) != 2 {
		t.Fatalf("defaults not filled: %+v", h2)
	}
}
