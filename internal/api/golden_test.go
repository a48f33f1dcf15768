package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"prodpred/internal/predict"
)

// recordedExchange is one request/response pair captured at PR 7 against
// the build that wrote the golden image in its original v1 format, before
// the v2 snapshot format and the distribution payload existed.
type recordedExchange struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	Body   string `json:"body"`
	Status int    `json:"status"`
	Resp   string `json:"resp"`
}

// goldenSnapshot is that image, converted to v2 once by the last build that
// read v1 (ReadSnapshot then WriteSnapshot, nothing else): the state the
// recorded exchanges were served from.
const goldenSnapshot = "../predict/testdata/snapshot_v2.snap"

// olderSnapshot is the golden image as it was committed until bandwidth
// monitors lost their distribution tournament: the same state, with a
// tournament section per bandwidth monitor, which deployed images of that
// era carry and today's restore drops.
const olderSnapshot = "../predict/testdata/snapshot_v2_pr16.snap"

// restoreGolden reads the golden snapshot into a registry — exactly what
// `predictd -restore` does at startup.
func restoreGolden(t *testing.T) (*predict.Registry, []byte) {
	t.Helper()
	return restoreImage(t, goldenSnapshot)
}

func restoreImage(t *testing.T, path string) (*predict.Registry, []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := predict.ReadSnapshot(bytes.NewReader(raw), predict.RegistryOptions{})
	if err != nil {
		t.Fatalf("%s no longer restores: %v", path, err)
	}
	return reg, raw
}

// subsetEqual requires every leaf recorded in want to appear, with the
// identical value, in got; keys only got carries (fields added since the
// fixture was recorded) are ignored. Arrays must match element count —
// growing a list would change what the recorded clients saw.
func subsetEqual(path string, want, got any) error {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: recorded object, now %T", path, got)
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				return fmt.Errorf("%s.%s: recorded field missing from response", path, k)
			}
			if err := subsetEqual(path+"."+k, wv, gv); err != nil {
				return err
			}
		}
		return nil
	case []any:
		g, ok := got.([]any)
		if !ok {
			return fmt.Errorf("%s: recorded array, now %T", path, got)
		}
		if len(g) != len(w) {
			return fmt.Errorf("%s: recorded %d elements, now %d", path, len(w), len(g))
		}
		for i := range w {
			if err := subsetEqual(fmt.Sprintf("%s[%d]", path, i), w[i], g[i]); err != nil {
				return err
			}
		}
		return nil
	default:
		if !reflect.DeepEqual(want, got) {
			return fmt.Errorf("%s: recorded %v, now %v", path, want, got)
		}
		return nil
	}
}

// TestGoldenSnapshotServesIdentically pins served numbers across releases:
// the golden snapshot restores into today's registry and serves
// byte-identical legacy fields on the exact request sequence recorded
// against the PR 7 build — IDs, means, spreads, calibration state, all of
// it. New fields (forecaster tags, dist payloads, quantile calibration
// state) may appear on top; nothing recorded may change.
func TestGoldenSnapshotServesIdentically(t *testing.T) {
	reg, _ := restoreGolden(t)
	serveRecording(t, reg)
}

// serveRecording replays the PR 7 recording against a restored registry.
// Each recorded prediction's loads array, which predictions no longer carry,
// must be what GET /report serves for its platform right after it, at the
// same time; and each recorded report's calibration state, which reports no
// longer carry, what GET /accuracy serves for its platform at that point.
func serveRecording(t *testing.T, reg *predict.Registry) {
	t.Helper()
	raw, err := os.ReadFile("../predict/testdata/snapshot_v1_responses.json")
	if err != nil {
		t.Fatal(err)
	}
	var exchanges []recordedExchange
	if err := json.Unmarshal(raw, &exchanges); err != nil {
		t.Fatal(err)
	}
	if len(exchanges) == 0 {
		t.Fatal("empty fixture")
	}
	handler := NewHandler(reg, Options{})
	for i, ex := range exchanges {
		req := httptest.NewRequest(ex.Method, ex.Path, strings.NewReader(ex.Body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != ex.Status {
			t.Fatalf("exchange %d (%s %s): status %d, recorded %d\n%s",
				i, ex.Method, ex.Path, rec.Code, ex.Status, rec.Body.String())
		}
		var want, got any
		if err := json.Unmarshal([]byte(ex.Resp), &want); err != nil {
			t.Fatalf("exchange %d: bad recorded response: %v", i, err)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("exchange %d: response is not JSON: %v\n%s", i, err, rec.Body.String())
		}
		var loads []predictionLoads
		var cal *reportCalibration
		switch {
		case strings.HasPrefix(ex.Path, "/predict"):
			loads = recordedLoads(want)
		case strings.HasPrefix(ex.Path, "/report"):
			cal = recordedCalibration(want)
		}
		if err := subsetEqual("resp", want, got); err != nil {
			t.Errorf("exchange %d (%s %s) diverged from the recording: %v",
				i, ex.Method, ex.Path, err)
		}
		for j, l := range loads {
			if err := reportHolds(handler, l); err != nil {
				t.Errorf("exchange %d (%s %s), prediction %d: %v", i, ex.Method, ex.Path, j, err)
			}
		}
		if cal != nil {
			if err := accuracyHolds(handler, *cal); err != nil {
				t.Errorf("exchange %d (%s %s): %v", i, ex.Method, ex.Path, err)
			}
		}
	}
}

// predictionLoads is the loads array a recorded prediction carried, with
// the platform and time it was served at.
type predictionLoads struct {
	platform string
	time     any
	loads    any
}

// recordedLoads takes the loads arrays out of a recorded /predict or
// /predict/batch response — the recording predates predictions leaving
// their per-machine reports to GET /report — and returns them in order.
func recordedLoads(resp any) []predictionLoads {
	obj, _ := resp.(map[string]any)
	preds := []any{obj}
	if items, ok := obj["responses"].([]any); ok {
		preds = items
	}
	var out []predictionLoads
	for _, p := range preds {
		pm, _ := p.(map[string]any)
		if l, ok := pm["loads"]; ok {
			platform, _ := pm["platform"].(string)
			out = append(out, predictionLoads{platform: platform, time: pm["time"], loads: l})
			delete(pm, "loads")
		}
	}
	return out
}

// reportHolds requires GET /report for the prediction's platform to serve
// the recorded loads at the prediction's time.
func reportHolds(h http.Handler, want predictionLoads) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/report?platform="+want.platform, nil))
	if rec.Code != 200 {
		return fmt.Errorf("GET /report: status %d: %s", rec.Code, rec.Body.String())
	}
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		return fmt.Errorf("GET /report: %v", err)
	}
	if err := subsetEqual("report.time", want.time, got["time"]); err != nil {
		return err
	}
	return subsetEqual("report.loads", want.loads, got["loads"])
}

// reportCalibration is the calibration state a recorded GET /report
// carried, with the platform and time it was served at.
type reportCalibration struct {
	platform    string
	time        any
	calibration any
	outstanding any
}

// recordedCalibration takes calibration and outstanding out of a recorded
// GET /report response — the recording predates reports leaving the
// calibration state to GET /accuracy — or returns nil if it has none.
func recordedCalibration(resp any) *reportCalibration {
	obj, _ := resp.(map[string]any)
	c, ok := obj["calibration"]
	if !ok {
		return nil
	}
	platform, _ := obj["platform"].(string)
	rc := &reportCalibration{platform: platform, time: obj["time"], calibration: c, outstanding: obj["outstanding"]}
	delete(obj, "calibration")
	delete(obj, "outstanding")
	return rc
}

// accuracyHolds requires GET /accuracy for the report's platform to serve
// the recorded calibration state and outstanding count at the report's
// time.
func accuracyHolds(h http.Handler, want reportCalibration) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/accuracy?platform="+want.platform, nil))
	if rec.Code != 200 {
		return fmt.Errorf("GET /accuracy: status %d: %s", rec.Code, rec.Body.String())
	}
	var got struct {
		Platforms []map[string]any `json:"platforms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		return fmt.Errorf("GET /accuracy: %v", err)
	}
	if len(got.Platforms) != 1 {
		return fmt.Errorf("GET /accuracy?platform=%s: %d platforms", want.platform, len(got.Platforms))
	}
	p := got.Platforms[0]
	if err := subsetEqual("accuracy.time", want.time, p["time"]); err != nil {
		return err
	}
	if err := subsetEqual("accuracy.outstanding", want.outstanding, p["outstanding"]); err != nil {
		return err
	}
	return subsetEqual("accuracy.accuracy", want.calibration, p["accuracy"])
}

// TestGoldenSnapshotIsFixedPoint: restoring the golden image and
// re-snapshotting reproduces it byte for byte, so the committed file is
// exactly what today's WriteSnapshot emits for that state.
func TestGoldenSnapshotIsFixedPoint(t *testing.T) {
	reg, raw := restoreGolden(t)
	var again bytes.Buffer
	if err := reg.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again.Bytes()) {
		t.Fatal("golden snapshot is not a fixed point: restore + rewrite changed bytes")
	}
}

// TestOlderSnapshotStillRestores: an image written before bandwidth
// monitors lost their tournament restores, re-snapshots to exactly today's
// golden image (the sections are dropped, nothing else moves), and serves
// the recording.
func TestOlderSnapshotStillRestores(t *testing.T) {
	reg, older := restoreImage(t, olderSnapshot)
	golden, err := os.ReadFile(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if len(older) <= len(golden) {
		t.Fatalf("the older image (%d bytes) should carry sections the golden one (%d bytes) lacks", len(older), len(golden))
	}
	var again bytes.Buffer
	if err := reg.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Fatal("restoring the older image and re-snapshotting does not give the golden image")
	}
	serveRecording(t, reg)
}

// TestGoldenRestoreServesQuantileLevels: the golden fleet carries no
// quantile outcomes (its state predates them), so it answers interval
// levels with identity quantile calibration — the calibrated grid equals
// the raw grid.
func TestGoldenRestoreServesQuantileLevels(t *testing.T) {
	reg, _ := restoreGolden(t)
	handler := NewHandler(reg, Options{})
	rec := post(handler, "/predict", `{"platform":"platform2","n":120,"iterations":6,"levels":[0.9,0.5,0.95]}`)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Dist == nil {
		t.Fatal("restored service served no dist payload")
	}
	if len(resp.Dist.Intervals) != 3 {
		t.Fatalf("asked for 3 interval levels, got %d", len(resp.Dist.Intervals))
	}
	for _, iv := range resp.Dist.Intervals {
		if iv.Lo > iv.Hi {
			t.Fatalf("interval %.2f inverted: [%g, %g]", iv.Level, iv.Lo, iv.Hi)
		}
	}
	if got := []float64{resp.Dist.Intervals[0].Level, resp.Dist.Intervals[1].Level, resp.Dist.Intervals[2].Level}; !reflect.DeepEqual(got, []float64{0.9, 0.5, 0.95}) {
		t.Fatalf("interval levels out of order: %v", got)
	}
	if !reflect.DeepEqual(resp.Dist.Raw, resp.Dist.Calibrated) {
		t.Fatalf("golden restore should serve identity quantile calibration:\nraw: %v\ncal: %v", resp.Dist.Raw, resp.Dist.Calibrated)
	}
	for i := 1; i < len(resp.Dist.Calibrated); i++ {
		if resp.Dist.Calibrated[i] < resp.Dist.Calibrated[i-1] {
			t.Fatalf("calibrated grid not nondecreasing: %v", resp.Dist.Calibrated)
		}
	}
	if resp.Dist.Forecaster == "" {
		t.Fatal("dist payload carries no forecaster tag")
	}
}
