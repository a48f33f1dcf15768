package api

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"prodpred/internal/calib"
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
		BWGaps: toGapsJSON(p.BWGaps),
	}
	if p.Partition != nil {
		pr.PartitionRows = p.Partition.Rows
	}
	for _, l := range p.Loads {
		pr.Loads = append(pr.Loads, toLoadJSON(l))
	}
	pr.Dist = toDistJSON(p.Dist)
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
	got := appendPrediction(nil, svc.Name(), &p, nil)
	want, err := json.Marshal(refPredictResponse(svc.Name(), p))
	if err != nil {
		t.Fatal(err)
	}
	mustEqualJSON(t, got, want)
}

// TestAppendObserveMatchesStdlib covers the observe-path encoder, both with
// an empty snapshot (drifts omitted) and a populated one.
func TestAppendObserveMatchesStdlib(t *testing.T) {
	snaps := []calib.Snapshot{
		{Scale: 1, Target: 0.95},
		{
			Observed: 40, WindowFill: 32, RawCapture: 0.9, CalibratedCapture: 0.97,
			CumRawCapture: 0.88, CumCalibratedCapture: 0.96,
			MeanSignedRelErr: -0.02, MeanAbsRelErr: 0.07,
			MeanRawWidth: 0.4, MeanCalibratedWidth: 0.55,
			Scale: 1.3, Target: 0.95, SinceReset: 12, LastTime: 812.5,
			Drifts: []calib.DriftEvent{
				{Time: 400, Seq: 1, Reason: "shift \"up\"", Stat: 3.2},
				{Time: 700, Seq: 2, Reason: "spread", Stat: 2.8},
			},
		},
	}
	for i, s := range snaps {
		got := appendObserve(nil, "platform1", s)
		want, err := json.Marshal(ObserveResponse{Platform: "platform1", Accuracy: toAccuracyJSON(s)})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualJSON(t, got, want)
		if i == 0 && string(got) == "" {
			t.Fatal("empty encoding")
		}
	}
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
		out.b = appendPrediction(out.b, name, &p, nil)
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

// TestLoadsMemoMatchesFreshEncode: the loads fragment copied out of the memo
// is the fragment appendLoads writes — over seeded sequences of predictions
// of shapes that share and do not share a tick's reports, batches, observes
// and zero and positive advances, on two platforms behind one memo, with the
// tick cache serving (a tick's responses after the first copy) and with every
// request pinning its partition, which bypasses the cache so every response
// carries fresh loads and encodes, each response encoded through the memo is
// byte for byte the response encoded without one.
func TestLoadsMemoMatchesFreshEncode(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, noCache := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			var svcs []*predict.Service
			for platform := 1; platform <= 2; platform++ {
				svcs = append(svcs, simulatedService(t, platform, 40+seed, 200))
			}
			var memo loadsMemo
			encoded, copied := 0, 0
			check := func(svc *predict.Service, p predict.Prediction) {
				t.Helper()
				before := memo.slots[svc.Name()]
				got := appendPrediction(nil, svc.Name(), &p, &memo)
				if want := appendPrediction(nil, svc.Name(), &p, nil); !bytes.Equal(got, want) {
					t.Fatalf("seed %d, cache off %v:\nmemo  %s\nfresh %s", seed, noCache, got, want)
				}
				encoded++
				if before != nil && memo.slots[svc.Name()] == before {
					copied++
				}
			}
			for step := 0; step < 60; step++ {
				svc := svcs[rng.Intn(len(svcs))]
				req := predict.Request{N: []int{120, 200}[rng.Intn(2)], Iterations: 1 + rng.Intn(4)}
				if rng.Intn(3) == 0 {
					req.Levels = []float64{0.9}
				}
				if noCache {
					part, err := svc.Partition(req)
					if err != nil {
						t.Fatal(err)
					}
					req.Partition = part
				}
				switch op := rng.Intn(8); {
				case op < 4:
					p, err := svc.Predict(req)
					if err != nil {
						t.Fatal(err)
					}
					check(svc, p)
					if op == 0 {
						if _, err := svc.Observe(p.ID, p.Raw.Mean*1.05); err != nil {
							t.Fatal(err)
						}
					}
				case op == 4:
					other := req
					other.Iterations += 7
					preds, errs := svc.PredictBatch([]predict.Request{req, other, req})
					for i, p := range preds {
						if errs[i] != nil {
							t.Fatal(errs[i])
						}
						check(svc, p)
					}
				case op == 5:
					if err := svc.Advance(0); err != nil {
						t.Fatal(err)
					}
				default:
					if err := svc.Advance(5 + 30*rng.Float64()); err != nil {
						t.Fatal(err)
					}
				}
			}
			if noCache && copied != 0 {
				t.Errorf("seed %d: %d of %d unshared slices matched a slot", seed, copied, encoded)
			}
			if !noCache && 2*copied < encoded {
				t.Errorf("seed %d: only %d of %d responses of shared ticks copied their loads", seed, copied, encoded)
			}
		}
	}
}

// TestLoadsMemoHitAllocatesNothing: after a tick's first response, writing
// the loads fragment is a copy.
func TestLoadsMemoHitAllocatesNothing(t *testing.T) {
	svc := codecService(t, 17)
	var memo loadsMemo
	var preds []predict.Prediction
	for its := 1; its <= 3; its++ {
		p, err := svc.Predict(predict.Request{N: 120, Iterations: its})
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, p)
	}
	name := svc.Name()
	buf := memo.appendLoads(make([]byte, 0, 8192), name, preds[0].Loads)
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		i++
		buf = memo.appendLoads(buf[:0], name, preds[i%len(preds)].Loads)
	}); allocs != 0 {
		t.Errorf("a memoized loads fragment costs %v allocations, want 0", allocs)
	}
	if want := appendLoads(nil, preds[0].Loads); !bytes.Equal(buf, want) {
		t.Errorf("memoized fragment %s, fresh %s", buf, want)
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
			var memo loadsMemo
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
						out.b = appendPrediction(out.b, name, &p, &memo)
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
