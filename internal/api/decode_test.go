package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"prodpred/internal/predict"
)

// post sends one body to a handler in-process.
func post(h http.Handler, route, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", route, strings.NewReader(body)))
	return rec
}

// TestPostBodyLimits: every body-reading route shares decodeBody's two
// refusals — a body over maxBodyBytes, and bytes after the JSON value —
// and accepts a body of exactly maxBodyBytes.
func TestPostBodyLimits(t *testing.T) {
	h := oneTenantHandler(t)
	// Routes run in postRoutes order, so /observe's id 1 is the prediction
	// the first /predict call issued.
	valid := map[string]string{
		"/predict":       `{"platform":"platform1","n":120,"iterations":6}`,
		"/predict/batch": `{"requests":[{"platform":"platform1","n":120,"iterations":6}]}`,
		"/observe":       `{"platform":"platform1","id":1,"actual":3}`,
		"/advance":       `{"platform":"platform1","seconds":1}`,
		"/schedule":      `{"jobs":[{"n":120,"iterations":4}]}`,
	}
	for _, route := range postRoutes {
		body := valid[route]
		atLimit := body + strings.Repeat(" ", maxBodyBytes-len(body))
		if rec := post(h, route, atLimit); rec.Code != http.StatusOK {
			t.Errorf("POST %s, body of exactly %d bytes: status %d: %s", route, maxBodyBytes, rec.Code, rec.Body)
		}
		if rec := post(h, route, atLimit+" "); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "request body exceeds") {
			t.Errorf("POST %s, body of %d bytes: status %d, want 400 (exceeds): %s", route, maxBodyBytes+1, rec.Code, rec.Body)
		}
		if rec := post(h, route, body+" trailing"); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad request body") {
			t.Errorf("POST %s, garbage after the value: status %d, want 400 (bad request body): %s", route, rec.Code, rec.Body)
		}
	}
}

// TestWorkCeilings: what one small body can ask for is bounded — a clock
// step by MaxAdvanceSeconds, a job shape by predict.MaxGridSize and
// predict.MaxIterations, a scheduled job's simulated work by
// fleetsched.MaxJobWork, the bandwidth monitors a platform keeps by
// predict.MaxProbeSizes — and a refusal is a 400 that names the limit. The
// values at the limits are served, and so is a shape the full tick cache
// has no room for.
func TestWorkCeilings(t *testing.T) {
	h := oneTenantHandler(t)
	cases := []struct {
		route, body string
		status      int
		want        string // substring of the response
	}{
		{"/predict", `{"n":120,"iterations":6}`, 200, `"time":120,`},
		{"/advance", `{"seconds":3600}`, 200, `"platform1":3720`},
		{"/advance", `{"seconds":3600}`, 200, `"platform1":7320`},
		{"/advance", `{"seconds":3600.001}`, 400, "seconds 3600.001 exceeds limit 3600"},
		{"/advance", `{"seconds":1e9}`, 400, "exceeds limit 3600"},
		{"/advance", `{"seconds":0}`, 400, "seconds must be positive"},
		{"/predict", `{"n":16384,"iterations":16777216}`, 200, `"id"`},
		{"/predict", `{"n":16385,"iterations":6}`, 400, "grid size 16385 exceeds limit 16384"},
		{"/predict", `{"n":120,"iterations":16777217}`, 400, "iterations 16777217 exceeds limit 16777216"},
		{"/predict", `{"n":9223372036854775807,"iterations":9223372036854775807}`, 400, "exceeds limit"},
		{"/predict/batch", `{"requests":[{"n":120,"iterations":6},{"n":16385,"iterations":6},{"n":120,"iterations":16777217}]}`, 200,
			`exceeds limit 16384"},{"error":"predict: iterations 16777217 exceeds limit 16777216"}`},
		{"/schedule", `{"jobs":[{"n":16384,"iterations":4096},{"n":1024,"iterations":1048576}]}`, 200, `"placements"`},
		{"/schedule", `{"jobs":[{"n":120,"iterations":6},{"n":16385,"iterations":6}]}`, 400, "job 1: predict: grid size 16385 exceeds limit 16384"},
		{"/schedule", `{"jobs":[{"n":120,"iterations":16777217}]}`, 400, "job 0: predict: iterations 16777217 exceeds limit 16777216"},
		{"/schedule", `{"jobs":[{"n":16384,"iterations":4097}]}`, 400, "are 1099780063232 element updates, exceeds limit 1099511627776"},
		// No refusal moved the clock.
		{"/predict", `{"n":120,"iterations":6}`, 200, `"time":7320,`},
	}
	for _, c := range cases {
		rec := post(h, c.route, c.body)
		if rec.Code != c.status || !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("POST %s %s: status %d, want %d with %q: %s", c.route, c.body, rec.Code, c.status, c.want, rec.Body)
		}
	}

	// Every distinct grid size is a bandwidth probe size the platform then
	// monitors for good: the 65th is refused, the 64 stay served.
	h = oneTenantHandler(t)
	predictBody := func(n, iterations int) string {
		return fmt.Sprintf(`{"n":%d,"iterations":%d,"levels":[0.9]}`, n, iterations)
	}
	for n := 100; n < 100+predict.MaxProbeSizes; n++ {
		if rec := post(h, "/predict", predictBody(n, 6)); rec.Code != http.StatusOK {
			t.Fatalf("grid size %d, probe size %d of %d: status %d: %s", n, n-99, predict.MaxProbeSizes, rec.Code, rec.Body)
		}
	}
	refused := "needs one more bandwidth probe size, exceeds limit 64 per platform"
	if rec := post(h, "/predict", predictBody(99, 6)); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), refused) {
		t.Errorf("a 65th probe size: status %d, want 400 with %q: %s", rec.Code, refused, rec.Body)
	}
	if rec := post(h, "/predict/batch", `{"requests":[{"n":130,"iterations":9},{"n":98,"iterations":9}]}`); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"id"`) || !strings.Contains(rec.Body.String(), refused) {
		t.Errorf("a batch with a monitored and a 65th probe size: status %d: %s", rec.Code, rec.Body)
	}

	// One tick memoizes 4096 shapes. Shapes past that are computed per call
	// and answer what a daemon with an empty cache answers.
	const shapes = 4200
	var last *httptest.ResponseRecorder
	for i := 1; i <= shapes; i++ {
		if last = post(h, "/predict", predictBody(100, i)); last.Code != http.StatusOK {
			t.Fatalf("shape %d of one tick: status %d: %s", i, last.Code, last.Body)
		}
	}
	id := regexp.MustCompile(`"id":\d+,`)
	fresh := post(oneTenantHandler(t), "/predict", predictBody(100, shapes))
	if got, want := id.ReplaceAllString(last.Body.String(), ""), id.ReplaceAllString(fresh.Body.String(), ""); got != want || !strings.Contains(got, `"intervals"`) {
		t.Errorf("shape %d of one tick answered\n%s\na fresh daemon answers\n%s", shapes, got, want)
	}
	// So is a shape of another grid size: with no room for the shape there
	// is none for its size either.
	last, fresh = post(h, "/predict", predictBody(130, 9)), post(oneTenantHandler(t), "/predict", predictBody(130, 9))
	if got, want := id.ReplaceAllString(last.Body.String(), ""), id.ReplaceAllString(fresh.Body.String(), ""); last.Code != http.StatusOK || got != want {
		t.Errorf("another grid size on a full tick answered %d\n%s\na fresh daemon answers\n%s", last.Code, got, want)
	}
}

// TestDecodeBodyStdlibSemantics pins what the request path does with the
// inputs the retired hand parser could not take itself: they decode as
// encoding/json decodes them, quirks included.
func TestDecodeBodyStdlibSemantics(t *testing.T) {
	cases := []struct {
		name, body string
		into, want any
	}{
		{"escaped string", `{"platform":"a\"bé","n":10,"iterations":1}`,
			&PredictRequest{}, &PredictRequest{Platform: "a\"bé", N: 10, Iterations: 1}},
		{"case-variant keys", `{"Platform":"platform1","N":120,"ITERATIONS":6,"LEVELS":[0.8]}`,
			&PredictRequest{}, &PredictRequest{Platform: "platform1", N: 120, Iterations: 6, Levels: []float64{0.8}}},
		{"observe, escaped", `{"platform":"p\t1","id":17,"actual":0.42}`,
			&ObserveRequest{}, &ObserveRequest{Platform: "p\t1", ID: 17, Actual: 0.42}},
		// A repeated array key decodes into the items already there,
		// element by element, and truncates to the later length.
		{"duplicate requests key", `{"requests":[{"platform":"platform1","n":10,"iterations":2},{"n":5}],"requests":[{"n":20}]}`,
			&BatchPredictRequest{}, &BatchPredictRequest{Requests: []PredictRequest{{Platform: "platform1", N: 20, Iterations: 2}}}},
		{"null requests", `{"requests":null}`, &BatchPredictRequest{}, &BatchPredictRequest{}},
		{"empty requests", `{"requests":[]}`, &BatchPredictRequest{}, &BatchPredictRequest{Requests: []PredictRequest{}}},
	}
	for _, c := range cases {
		r := httptest.NewRequest("POST", "/", strings.NewReader(c.body))
		if err := decodeBody(r, c.into); err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if !reflect.DeepEqual(c.into, c.want) {
			t.Errorf("%s: decoded %+v, want %+v", c.name, c.into, c.want)
		}
	}
}

// TestDecodeBodyRefusesUnknownKeys: a key the route's body does not declare
// is a 400 that names it — a misspelt field, a removed one (level, advance),
// one nested in a batch item or a value — never a request quietly served
// without it. So is a query string on the two predict routes: levels are
// the body's levels array and nothing else.
func TestDecodeBodyRefusesUnknownKeys(t *testing.T) {
	h := oneTenantHandler(t)
	cases := []struct{ route, body, want string }{
		{"/predict", `{"n":120,"iterations":6,"levles":[0.9]}`, `unknown field \"levles\"`},
		{"/predict", `{"n":120,"iterations":6,"level":0.9}`, `unknown field \"level\"`},
		{"/predict", `{"n":120,"iterations":6,"advance":30}`, `unknown field \"advance\"`},
		{"/predict", `{"n":10,"unknown":{"nested":[1,2,{"x":"y\\"}]},"iterations":1}`, `unknown field \"unknown\"`},
		{"/predict/batch", `{"requests":[{"n":120,"iterations":6},{"n":120,"iterations":6,"advance":5}]}`, `unknown field \"advance\"`},
		{"/observe", `{"platform":"platform1","id":1,"actual":3,"actaul":3}`, `unknown field \"actaul\"`},
		{"/advance", `{"platform":"platform1","secs":60}`, `unknown field \"secs\"`},
		{"/schedule", `{"jobs":[{"n":120,"iterations":4,"deadine":900}]}`, `unknown field \"deadine\"`},
		{"/predict?levels=0.9", `{"n":120,"iterations":6}`, "levels array"},
		{"/predict/batch?level=0.9", `{"requests":[{"n":120,"iterations":6}]}`, "levels array"},
	}
	for _, c := range cases {
		rec := post(h, c.route, c.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("POST %s %s: status %d, want 400 with %q: %s", c.route, c.body, rec.Code, c.want, rec.Body)
		}
	}
	// None of them reached the tenant: its first prediction is still id 1
	// at the warm-up tick.
	if rec := post(h, "/predict", `{"n":120,"iterations":6}`); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"time":120,"id":1,`) {
		t.Errorf("after the refusals: status %d: %s", rec.Code, rec.Body)
	}
}
