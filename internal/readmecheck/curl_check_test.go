package readmecheck

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"prodpred/internal/api"
	"prodpred/internal/predict"
)

// curlExample matches a documented request with a body: `curl …
// localhost:8080/<route> -d '<body>'`, the route possibly quoted with its
// query and the -d on a continuation line, and the body possibly spanning
// lines. A `# => NNN` line right after it documents a status other than 200.
var curlExample = regexp.MustCompile(`curl [^\n]*?'?localhost:8080(/[^\s']*)'?(?:[ \t]*\\\n[ \t]*)?[ \t]+-d '([^']*)'(?:[ \t]*\n# => (\d{3})\b)?`)

// TestDocumentedRequestsRun posts every curl example with a body in
// OPERATIONS.md and README.md to the daemon's handler, in document order,
// each document against a fresh fleet — the built-in platforms as predictd
// serves them plus OPERATIONS.md's fleet-mode example spec — as a reader
// typing them in would. Each must answer the status its text documents (200
// unless a `# => NNN` line says otherwise), so a doc still teaching a
// removed spelling fails here.
func TestDocumentedRequestsRun(t *testing.T) {
	for _, doc := range []string{"OPERATIONS.md", "README.md"} {
		text := readRepoFile(t, doc)
		examples := curlExample.FindAllStringSubmatch(text, -1)
		if len(examples) < 5 {
			t.Fatalf("%s: found %d curl examples with a body, want at least 5", doc, len(examples))
		}
		h := api.NewHandler(documentedFleet(t), api.Options{})
		for _, ex := range examples {
			route, body, want := ex[1], ex[2], http.StatusOK
			if ex[3] != "" {
				want, _ = strconv.Atoi(ex[3])
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", route, strings.NewReader(body)))
			if rec.Code != want {
				t.Errorf("%s: POST %s %s: status %d, documented %d: %s", doc, route, body, rec.Code, want, rec.Body)
			}
		}
	}
}

// documentedFleet is the fleet the examples are written against: platform1
// and platform2 as a zero-flag predictd serves them, and the fleet-mode
// example's tenants, cold.
func documentedFleet(t *testing.T) *predict.Registry {
	t.Helper()
	reg := predict.NewRegistry()
	for _, id := range []int{1, 2} {
		spec, err := predict.SimulatedSpec(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		spec.Warmup = 600
		spec.FaultSeed = 1 + int64(id)
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range fleetModeExample(t) {
		if err := reg.RegisterSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}
