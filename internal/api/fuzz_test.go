package api

import (
	"encoding/json"
	"net/http"
	"testing"

	"prodpred/internal/predict"
)

// postRoutes are the five routes that read a request body.
var postRoutes = []string{"/predict", "/predict/batch", "/observe", "/advance", "/schedule"}

// oneTenantHandler serves "platform1" alone, instantiated on first touch.
func oneTenantHandler(tb testing.TB) http.Handler {
	tb.Helper()
	spec, err := predict.SimulatedSpec(1, 5)
	if err != nil {
		tb.Fatal(err)
	}
	spec.Warmup = 120
	reg := predict.NewRegistry()
	if err := reg.RegisterSpec(spec); err != nil {
		tb.Fatal(err)
	}
	return NewHandler(reg, Options{})
}

// FuzzPostBodies throws arbitrary bytes at every body-reading route of a
// real handler over a one-tenant registry. Whatever the bytes, the daemon
// must not panic, must answer 200, 400 or 404, and must answer in JSON.
func FuzzPostBodies(f *testing.F) {
	seeds := []string{
		// predict bodies, well-formed and malformed
		`{"platform":"platform1","n":200,"iterations":5}`,
		`{"platform":"p2","n":80,"iterations":4,"strategy":"conservative","max_strategy":"magnitude","iteration_rel":"unrelated"}`,
		` { "n" : 10 , "unknown" : {"nested":[1,2,{"x":"y"}]} , "iterations" : 1 } `,
		`{"n":120,"iterations":6,"levels":[0.9,0.5,0.95]}`,
		`{"n":120,"iterations":6,"level":0.9}`,
		`{"n":120,"iterations":6,"levels":null}`,
		`{"N":120,"ITERATIONS":6}`,
		`{"platform":"esc\"aped","n":1}`,
		`{"n":1e2}`,
		`{"n":01}`,
		`{"seconds":+5}`,
		`{"seconds":1.}`,
		`{"seconds":-3.5e-1}`,
		`{"unknown":truely}`,
		`{"unknown":}`,
		`{"levels":[0.5,]}`,
		`{}`,
		``,
		// observe bodies
		`{"platform":"platform1","id":17,"actual":0.42}`,
		`{"id":1,"actual":3}`,
		`{"id":-1,"actual":3}`,
		// batch bodies
		`{"requests":[{"platform":"platform1","n":10,"iterations":2},{"n":20,"iterations":3,"strategy":"optimistic"}]}`,
		`{"requests":[]}`,
		`{"requests":null}`,
		`{"requests":[1]}`,
		`{"requests":[{"n":1}],"requests":[{}]}`,
		// more work than one body may ask for, and the most it may
		`{"seconds":1e9}`,
		`{"n":1000000000,"iterations":1000000000}`,
		`{"n":16384,"iterations":16777216}`,
		`{"seconds":3600}`,
		`{"jobs":[{"n":16384,"iterations":4096},{"n":99999,"iterations":1}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	handler := oneTenantHandler(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, route := range postRoutes {
			rec := post(handler, route, string(data))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Fatalf("POST %s %q: status %d\n%s", route, data, rec.Code, rec.Body)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("POST %s %q: response is not JSON: %s", route, data, rec.Body)
			}
		}
	})
}
