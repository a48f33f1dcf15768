package api

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"prodpred/internal/predict"
)

// codecService builds one warmed simulated platform for codec tests and
// benchmarks.
func codecService(t testing.TB, seed int64) *predict.Service {
	return simulatedService(t, 1, seed, 300)
}

// simulatedService builds SimulatedSpec(platform, seed)'s service, warmed
// up to warmup.
func simulatedService(t testing.TB, platform int, seed int64, warmup float64) *predict.Service {
	spec, err := predict.SimulatedSpec(platform, seed)
	if err != nil {
		t.Fatal(err)
	}
	spec.Warmup = warmup
	svc, err := predict.NewServiceFromSpec(&spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// refPredictResponse is the reflection-path reference: the wire struct the
// hand-rolled encoder must match byte-for-byte semantics with.
func refPredictResponse(platform string, p predict.Prediction) PredictResponse {
	lo, hi := p.Value.Interval()
	pr := PredictResponse{
		Platform: platform, Time: p.Time, ID: p.ID,
		Mean: p.Value.Mean, Spread: p.Value.Spread, Lo: lo, Hi: hi,
		RawSpread: p.Raw.Spread, CalibrationScale: p.CalibrationScale,
		Degraded: p.Degraded(),
		BWMean:   p.Bandwidth.Mean, BWSpread: p.Bandwidth.Spread,
		BWGaps: p.BWGaps,
	}
	if p.Partition != nil {
		pr.PartitionRows = p.Partition.Rows
	}
	if len(p.Dist.Calibrated) > 0 {
		pr.Dist = &p.Dist
	}
	return pr
}

// mustEqualJSON unmarshals both encodings into untyped values and requires
// exact agreement — same keys, same values, same nesting.
func mustEqualJSON(t *testing.T, got, want []byte) {
	t.Helper()
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("codec output is not valid JSON: %v\n%s", err, got)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("reference output is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(g, w) {
		t.Errorf("codec and stdlib encodings diverge:\ncodec:  %s\nstdlib: %s", got, want)
	}
}

// TestAppendPredictionMatchesStdlib: the hand-rolled prediction encoder
// must be indistinguishable from encoding/json over the PredictResponse
// wire struct, on a real pipeline prediction.
func TestAppendPredictionMatchesStdlib(t *testing.T) {
	svc := codecService(t, 7)
	p, err := svc.Predict(predict.Request{N: 120, Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	got := appendPrediction(nil, svc.Name(), &p)
	want, err := json.Marshal(refPredictResponse(svc.Name(), p))
	if err != nil {
		t.Fatal(err)
	}
	mustEqualJSON(t, got, want)
}

// TestAppendErrorObjMatchesStdlib: error payloads escape like stdlib does.
func TestAppendErrorObjMatchesStdlib(t *testing.T) {
	for _, msg := range []string{"plain", `quote " and \ slash`, "line\nbreak\ttab", "ctrl\x01"} {
		got := appendErrorObj(nil, msg)
		want, err := json.Marshal(map[string]string{"error": msg})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualJSON(t, got, want)
	}
}

// TestCodecFewerAllocs is the allocation claim itself: encoding a
// prediction through the pooled codec must allocate strictly less than the
// reflection path.
func TestCodecFewerAllocs(t *testing.T) {
	svc := codecService(t, 11)
	p, err := svc.Predict(predict.Request{N: 120, Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	name := svc.Name()
	codec := testing.AllocsPerRun(200, func() {
		out := getBuf()
		out.b = appendPrediction(out.b, name, &p)
		out.release()
	})
	stdlib := testing.AllocsPerRun(200, func() {
		if _, err := json.Marshal(refPredictResponse(name, p)); err != nil {
			t.Fatal(err)
		}
	})
	if codec >= stdlib {
		t.Errorf("codec path allocates %.1f/op, stdlib %.1f/op — want strictly fewer", codec, stdlib)
	}
	if codec > 1 {
		t.Errorf("pooled codec encode allocates %.1f/op, want ≤1", codec)
	}
}

// BenchmarkServicePredictParallel measures the serving hot path end to end
// — Predict plus response encoding — under parallel load, once per codec.
// The codec flavor must show fewer allocs/op than the stdjson flavor.
func BenchmarkServicePredictParallel(b *testing.B) {
	for _, mode := range []string{"codec", "stdjson"} {
		b.Run(mode, func(b *testing.B) {
			svc := codecService(b, 13)
			req := predict.Request{N: 120, Iterations: 6}
			name := svc.Name()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					p, err := svc.Predict(req)
					if err != nil {
						b.Fatal(err)
					}
					if mode == "codec" {
						out := getBuf()
						out.b = appendPrediction(out.b, name, &p)
						out.release()
					} else {
						if _, err := json.Marshal(refPredictResponse(name, p)); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		})
	}
}

// BenchmarkEncodePrediction prices the hand-written prediction encoder
// against encoding/json alone: the same prediction, without a grid and
// with two interval levels, encoded by appendPrediction into a pooled
// buffer (hand) and by json.Marshal of its PredictResponse, built once
// outside the timed loop (stdlib).
func BenchmarkEncodePrediction(b *testing.B) {
	svc := codecService(b, 13)
	name := svc.Name()
	for _, levels := range [][]float64{nil, {0.5, 0.9}} {
		p, err := svc.Predict(predict.Request{N: 120, Iterations: 6, Levels: levels})
		if err != nil {
			b.Fatal(err)
		}
		resp := refPredictResponse(name, p)
		b.Run(fmt.Sprintf("hand/levels=%d", len(levels)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := getBuf()
				out.b = appendPrediction(out.b, name, &p)
				out.release()
			}
		})
		b.Run(fmt.Sprintf("stdlib/levels=%d", len(levels)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(&resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
