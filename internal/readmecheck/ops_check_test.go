package readmecheck

// These tests keep OPERATIONS.md honest: every route the daemon actually
// registers and every metric family the serving stack actually exposes
// must appear in the runbook, and README.md must link to it. Adding an
// endpoint or metric without documenting it fails here.

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"prodpred/internal/api"
	"prodpred/internal/calib"
	"prodpred/internal/fleetsched"
	"prodpred/internal/nws"
	"prodpred/internal/obs"
	"prodpred/internal/predict"
)

func readRepoFile(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return string(raw)
}

// buildServingMetrics boots the daemon's serving stack (both platforms on
// a shared registry plus the HTTP handler) and returns every registered
// metric family name — the ground truth the runbook must cover.
func buildServingMetrics(t *testing.T) []string {
	t.Helper()
	metrics := obs.NewRegistry()
	reg := predict.NewRegistryWith(predict.RegistryOptions{Metrics: metrics})
	for _, id := range []int{1, 2} {
		spec, err := predict.SimulatedSpec(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Lookup(spec.Name); err != nil {
			t.Fatal(err)
		}
	}
	api.NewHandler(reg, api.Options{Metrics: metrics})
	return metrics.MetricNames()
}

func TestOperationsDocumentsEveryRoute(t *testing.T) {
	ops := readRepoFile(t, "OPERATIONS.md")
	for _, rt := range append(append([]api.Route{}, api.Routes...), api.PprofRoutes...) {
		// The runbook headings use the pattern form ("POST /predict") or at
		// minimum the path itself.
		parts := strings.SplitN(rt.Pattern, " ", 2)
		if len(parts) != 2 {
			t.Fatalf("malformed route pattern %q", rt.Pattern)
		}
		if !strings.Contains(ops, parts[1]) {
			t.Errorf("OPERATIONS.md does not mention route %q", rt.Pattern)
		}
	}
}

func TestOperationsDocumentsEveryMetric(t *testing.T) {
	ops := readRepoFile(t, "OPERATIONS.md")
	names := buildServingMetrics(t)
	if len(names) < 12 {
		t.Fatalf("serving stack registers %d metric families, want >= 12: %v",
			len(names), names)
	}
	for _, name := range names {
		if !strings.Contains(ops, "`"+name+"`") {
			t.Errorf("OPERATIONS.md does not document metric %q", name)
		}
	}
	// And every pipeline stage label value.
	for _, stage := range predict.Stages {
		if !strings.Contains(ops, "`"+stage+"`") {
			t.Errorf("OPERATIONS.md does not document stage %q", stage)
		}
	}
	// The serving-cache, batch, fleet-step and load-replay families must be
	// both registered (the enumeration above would miss a family that
	// silently stopped being registered) and documented.
	registered := make(map[string]bool, len(names))
	for _, name := range names {
		registered[name] = true
	}
	for _, name := range []string{
		predict.MetricCacheHits, predict.MetricCacheMisses, predict.MetricBatchSize,
		predict.MetricFleetAdvance, predict.MetricLoadReplays, predict.MetricLoadReplayTicks,
	} {
		if !registered[name] {
			t.Errorf("serving stack no longer registers %q", name)
		}
		if !strings.Contains(ops, "`"+name+"`") {
			t.Errorf("OPERATIONS.md does not document metric %q", name)
		}
	}
}

func TestReadmeLinksOperations(t *testing.T) {
	readme := readRepoFile(t, "README.md")
	if !strings.Contains(readme, "OPERATIONS.md") {
		t.Error("README.md does not link to OPERATIONS.md")
	}
}

// TestPredictResponseExamplesUseWireKeys: every "key": shown in the JSON
// response examples of OPERATIONS.md's POST /predict, POST /predict/batch,
// POST /observe, GET /accuracy, GET /report, GET /healthz, POST /schedule
// and GET /schedule/status sections is a JSON key of the payload types that
// route answers with, so a key removed from the wire
// cannot live on in the runbook; and every drift "reason" shown is one the
// calibrator writes.
func TestPredictResponseExamplesUseWireKeys(t *testing.T) {
	predictTypes := []any{api.PredictResponse{}, nws.GapStats{}, predict.PredictionDist{}, predict.Interval{}}
	wireTypes := map[string][]any{
		"POST /predict":        predictTypes,
		"POST /predict/batch":  append([]any{api.BatchPredictResponse{}, api.BatchPredictItem{}}, predictTypes...),
		"POST /observe":        {api.ObserveResponse{}},
		"GET /accuracy":        {api.AccuracyResponse{}, api.AccuracyPlatform{}, calib.Snapshot{}, calib.DriftEvent{}},
		"GET /report":          {api.ReportResponse{}, api.LoadJSON{}, nws.GapStats{}, nws.Component{}},
		"GET /healthz":         {api.HealthResponse{}, api.HealthPlatform{}, api.HealthMachine{}, nws.GapStats{}},
		"POST /schedule":       {api.ScheduleResponse{}, fleetsched.Placement{}},
		"GET /schedule/status": {fleetsched.Status{}, fleetsched.TenantStatus{}, fleetsched.JobStatus{}},
	}
	ops := readRepoFile(t, "OPERATIONS.md")
	jsonKey := regexp.MustCompile(`"([^"]*)"\s*:`)
	reason := regexp.MustCompile(`"reason"\s*:\s*"([^"]*)"`)
	for route, types := range wireTypes {
		keys := map[string]bool{}
		for _, typ := range types {
			rt := reflect.TypeOf(typ)
			for i := 0; i < rt.NumField(); i++ {
				if key, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ","); key != "" && key != "-" {
					keys[key] = true
				}
			}
		}
		_, section, ok := strings.Cut(ops, "\n### "+route+"\n")
		if !ok {
			t.Fatalf("OPERATIONS.md has no %q section", "### "+route)
		}
		section, _, _ = strings.Cut(section, "\n### ")
		examples := 0
		for rest := section; ; {
			var block string
			if _, rest, ok = strings.Cut(rest, "```json\n"); !ok {
				break
			}
			block, rest, _ = strings.Cut(rest, "```")
			examples++
			for _, m := range jsonKey.FindAllStringSubmatch(block, -1) {
				if !keys[m[1]] {
					t.Errorf("OPERATIONS.md's %s response example shows %q, which the response does not carry", route, m[1])
				}
			}
			for _, m := range reason.FindAllStringSubmatch(block, -1) {
				if m[1] != calib.ReasonCUSUM && m[1] != calib.ReasonModeCount {
					t.Errorf("OPERATIONS.md's %s response example shows drift reason %q; the calibrator writes %q or %q", route, m[1], calib.ReasonCUSUM, calib.ReasonModeCount)
				}
			}
		}
		if examples == 0 {
			t.Errorf("OPERATIONS.md's %s section shows no JSON response example", route)
		}
	}
}
