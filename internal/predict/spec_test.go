package predict_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"prodpred/internal/load"
	"prodpred/internal/predict"
	"prodpred/internal/workload"
)

func TestSpecValidation(t *testing.T) {
	valid := func() predict.PlatformSpec {
		return predict.PlatformSpec{
			Name:     "t",
			Machines: []predict.MachineSpec{{Name: "m0", Kind: "sparc5"}, {Name: "m1", Kind: "sparc10"}},
			Seed:     3,
		}
	}
	cases := []struct {
		name   string
		mutate func(*predict.PlatformSpec)
	}{
		{"missing name", func(s *predict.PlatformSpec) { s.Name = "" }},
		{"no machines", func(s *predict.PlatformSpec) { s.Machines = nil }},
		{"bad machine kind", func(s *predict.PlatformSpec) { s.Machines[0].Kind = "vax" }},
		{"kindless machine without rates", func(s *predict.PlatformSpec) { s.Machines[0].Kind = "" }},
		{"bad load kind", func(s *predict.PlatformSpec) { s.CPU = []workload.LoadSpec{{Kind: "nope"}} }},
		{"cpu count mismatch", func(s *predict.PlatformSpec) {
			s.CPU = []workload.LoadSpec{{Kind: "light"}, {Kind: "light"}, {Kind: "light"}}
		}},
		{"single machine", func(s *predict.PlatformSpec) { s.Machines = s.Machines[:1] }},
		{"fault machine out of range", func(s *predict.PlatformSpec) {
			s.Faults = []predict.FaultSpec{{Machine: 5, Drop: 0.1}}
		}},
		{"negative warmup", func(s *predict.PlatformSpec) { s.Warmup = -1 }},
		// A warm-up samples every monitor once a period before the first
		// answer: one day at most.
		{"warmup above a day", func(s *predict.PlatformSpec) { s.Warmup = 86401 }},
		{"warmup 1e300", func(s *predict.PlatformSpec) { s.Warmup = 1e300 }},
		{"infinite warmup", func(s *predict.PlatformSpec) { s.Warmup = math.Inf(1) }},
		{"NaN warmup", func(s *predict.PlatformSpec) { s.Warmup = math.NaN() }},
		{"bad link", func(s *predict.PlatformSpec) { s.Link = &predict.LinkSpec{DedBW: -1} }},
		{"switch without boundary", func(s *predict.PlatformSpec) {
			s.CPU = []workload.LoadSpec{{Kind: "switch", Children: []workload.LoadSpec{{Kind: "light"}, {Kind: "light"}}}}
		}},
		{"switch boundaries descending", func(s *predict.PlatformSpec) {
			s.CPU = []workload.LoadSpec{{Kind: "switch", At: []float64{20, 10},
				Children: []workload.LoadSpec{{Kind: "light"}, {Kind: "light"}, {Kind: "light"}}}}
		}},
		{"constant level above 1", func(s *predict.PlatformSpec) { s.CPU = []workload.LoadSpec{{Kind: "constant", Level: 1.5}} }},
		{"constant net level below 0", func(s *predict.PlatformSpec) { s.Net = &workload.LoadSpec{Kind: "constant", Level: -0.5} }},
		{"switch bad child", func(s *predict.PlatformSpec) {
			s.CPU = []workload.LoadSpec{{Kind: "switch", At: []float64{10}, Children: []workload.LoadSpec{{Kind: "light"}, {Kind: "nope"}}}}
		}},
		// User counts above workload.MaxUsers: each tick loops over them.
		{"user-sessions stationary users", func(s *predict.PlatformSpec) {
			s.CPU = []workload.LoadSpec{{Kind: "user-sessions", Lambda: 1e9, Mu: 1}}
		}},
		{"user-sessions arrivals per tick", func(s *predict.PlatformSpec) {
			s.CPU = []workload.LoadSpec{{Kind: "user-sessions", Lambda: 60, Mu: 1, DT: 10}}
		}},
		{"cohort stationary users", func(s *predict.PlatformSpec) {
			s.CPU = []workload.LoadSpec{{Kind: "cohorts", Cohorts: []workload.Cohort{{Lambda: 1e9, Mu: 1e-9}}}}
		}},
		{"cohorts summed stationary users", func(s *predict.PlatformSpec) {
			s.CPU = []workload.LoadSpec{{Kind: "cohorts", Cohorts: []workload.Cohort{{Lambda: 300, Mu: 1}, {Lambda: 300, Mu: 1}}}}
		}},
		{"cohort peak arrivals per tick", func(s *predict.PlatformSpec) {
			s.CPU = []workload.LoadSpec{{Kind: "cohorts", Cohorts: []workload.Cohort{{Lambda: 300, Mu: 10, Period: 60, Swing: 1}}}}
		}},
		{"flash-crowd users", func(s *predict.PlatformSpec) {
			s.Net = &workload.LoadSpec{Kind: "flash-crowd", Users: 400, Crowd: 200, Ramp: 10, Decay: 10}
		}},
	}
	for _, tc := range cases {
		spec := valid()
		tc.mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: want validation error", tc.name)
		}
	}
	spec := valid()
	if err := spec.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	spec.Warmup = predict.MaxWarmup
	if err := spec.Validate(); err != nil {
		t.Fatalf("warmup at the ceiling rejected: %v", err)
	}
	// At the ceiling is still a load.
	spec.CPU = []workload.LoadSpec{{Kind: "user-sessions", Lambda: workload.MaxUsers, Mu: 1},
		{Kind: "cohorts", Cohorts: []workload.Cohort{{Lambda: workload.MaxUsers / 2, Mu: 0.5, Period: 60, Swing: 1}}}}
	spec.Net = &workload.LoadSpec{Kind: "flash-crowd", Users: workload.MaxUsers - 1, Crowd: 1, Ramp: 10, Decay: 10}
	if err := spec.Validate(); err != nil {
		t.Fatalf("loads at the user ceiling rejected: %v", err)
	}
}

// TestSpecBroadcastAndDefaults covers the CPU conveniences: no loads means
// light load everywhere, one load broadcasts to every machine.
func TestSpecBroadcastAndDefaults(t *testing.T) {
	spec := predict.PlatformSpec{
		Name: "broadcast",
		Machines: []predict.MachineSpec{
			{Name: "a", Kind: "sparc5"},
			{Name: "b", Kind: "sparc5"},
			{Name: "c", Kind: "sparc10"},
		},
		CPU:  []workload.LoadSpec{{Kind: "platform2-bursty"}},
		Seed: 11,
	}
	svc, err := predict.NewServiceFromSpec(&spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(svc.Machines()); got != 3 {
		t.Fatalf("machines = %d, want 3", got)
	}
	empty := predict.PlatformSpec{
		Name:     "defaults",
		Machines: []predict.MachineSpec{{Name: "a", Kind: "ultra"}, {Name: "b", Kind: "ultra"}},
		Seed:     11,
	}
	if _, err := predict.NewServiceFromSpec(&empty, nil); err != nil {
		t.Fatalf("defaulted spec failed: %v", err)
	}
}

// TestSwitchLoadSpec: a "switch" load is load.NewSwitch over its children,
// and child i without a seed runs on the combinators' child seed of the
// switch's, itself derived from the platform seed and the machine index.
func TestSwitchLoadSpec(t *testing.T) {
	spec := predict.PlatformSpec{
		Name:     "switch",
		Machines: []predict.MachineSpec{{Name: "a", Kind: "sparc5"}, {Name: "b", Kind: "ultra"}},
		CPU: []workload.LoadSpec{{Kind: "switch", At: []float64{100},
			Children: []workload.LoadSpec{{Kind: "light", Seed: 5}, {Kind: "platform2-bursty"}}}},
		Seed: 30,
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	for m, p := range cfg.CPU {
		light, err := load.LightLoad(5)
		if err != nil {
			t.Fatal(err)
		}
		// childSeed(30+m, 1): parent·1000003 + (1+1)·7919.
		bursty, err := load.Platform2FourModeBursty((30+int64(m))*1000003 + 2*7919)
		if err != nil {
			t.Fatal(err)
		}
		want, err := load.NewSwitch([]float64{100}, light, bursty)
		if err != nil {
			t.Fatal(err)
		}
		if p.Interval() != want.Interval() {
			t.Errorf("machine %d: tick %g, want %g", m, p.Interval(), want.Interval())
		}
		for at := 0.0; at < 300; at += 7 {
			if got, w := p.At(at), want.At(at); got != w {
				t.Fatalf("machine %d at %g: %v, want %v", m, at, got, w)
			}
		}
	}
}

func TestParseSpecs(t *testing.T) {
	specsJSON := `[
	  {"name":"a","seed":1,"machines":[{"name":"m0","kind":"sparc5"},{"name":"m1","kind":"sparc10"}],
	   "cpu":[{"kind":"single-mode","mean":0.5,"sigma":0.05,"phi":0.8}],
	   "net":{"kind":"ethernet-contention"},
	   "faults":[{"machine":0,"drop":0.05,"outages":[{"start":10,"end":20}]}]},
	  {"name":"b","seed":2,"machines":[{"name":"m0","elem_rate":1e6,"memory_mb":64},{"name":"m1","elem_rate":2e6,"memory_mb":64}]}
	]`
	specs, err := predict.ParseSpecs(strings.NewReader(specsJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "a" || specs[1].Name != "b" {
		t.Fatalf("parsed %+v", specs)
	}
	if _, err := predict.ParseSpecs(strings.NewReader(`[{"name":"x","bogus_field":1}]`)); err == nil {
		t.Error("unknown field should be rejected")
	}
	if _, err := predict.ParseSpecs(strings.NewReader(`[{"name":"x","machines":[]}]`)); err == nil {
		t.Error("invalid spec should be rejected")
	}
}

// FuzzParseSpecs: ParseSpecs never panics, and the JSON of anything it
// accepts is a fixed point of parse → marshal. Inputs that could name a
// trace file are skipped: that load kind opens files.
func FuzzParseSpecs(f *testing.F) {
	f.Add([]byte(`[{"name":"a","seed":1,"machines":[{"name":"m0","kind":"sparc5"},{"name":"m1","kind":"sparc10"}],
	  "cpu":[{"kind":"single-mode","mean":0.5,"sigma":0.05,"phi":0.8}],"net":{"kind":"ethernet-contention"},
	  "faults":[{"machine":0,"drop":0.05,"outages":[{"start":10,"end":20}]}]}]`))
	f.Add([]byte(`[{"name":"s","machines":[{"name":"a","elem_rate":1e6,"memory_mb":64},{"name":"b","kind":"ultra"}],
	  "cpu":[{"kind":"switch","at":[100],"children":[{"kind":"light","seed":3},{"kind":"platform2-bursty"}]}],
	  "net":{"kind":"scenario","scenario":"flash-crowd"},"warmup":10}]`))
	f.Add([]byte(`[{"name":"m","machines":[{"name":"a","kind":"sparc2"},{"name":"b","kind":"sparc2"}],
	  "cpu":[{"kind":"markov-modal","modes":[{"mean":0.3,"sigma":0.05},{"mean":0.8,"sigma":0.05}],"weights":[1,1],"switch_prob":0.1}]}]`))
	f.Add([]byte(`[{"name":"w","machines":[{"name":"a","kind":"sparc5"},{"name":"b","kind":"ultra"}],
	  "cpu":[{"kind":"clamp","lo":0.2,"hi":0.95,"children":[{"kind":"sum","weights":[0.6,0.4],"children":[
	    {"kind":"diurnal","base":0.6,"cycles":[{"period":300,"amp":0.2,"phase":1}]},
	    {"kind":"cohorts","cohorts":[{"lambda":0.03,"mu":0.02,"start":50,"period":600,"swing":0.5,"phase":2}]}]}]},
	    {"kind":"flash-crowd","users":0.5,"crowd":6,"onset":100,"ramp":30,"decay":90,"repeat":600,"seed":4}],
	  "net":{"kind":"modulate","children":[{"kind":"ethernet-contention"},{"kind":"constant","level":0.9}]}}]`))
	// A user count past workload.MaxUsers, refused before any tick loops
	// over it.
	f.Add([]byte(`[{"name":"u","machines":[{"name":"a","kind":"sparc5"},{"name":"b","kind":"ultra"}],
	  "cpu":[{"kind":"user-sessions","lambda":1e9,"mu":1},{"kind":"cohorts","cohorts":[{"lambda":1e9,"mu":1e-9}]}]}]`))
	for _, id := range []int{1, 2} {
		spec, err := predict.SimulatedSpec(id, 4)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal([]predict.PlatformSpec{spec})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.Contains(data, []byte("trace")) || bytes.Contains(data, []byte(`\u`)) {
			return
		}
		specs, err := predict.ParseSpecs(bytes.NewReader(data))
		if err != nil {
			return
		}
		once, err := json.Marshal(specs)
		if err != nil {
			t.Fatalf("accepted specs do not marshal: %v", err)
		}
		again, err := predict.ParseSpecs(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("marshalled specs are refused: %v\n%s", err, once)
		}
		twice, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("parse → marshal is not a fixed point:\n%s\n%s", once, twice)
		}
	})
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec, err := predict.SimulatedSpec(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = []predict.FaultSpec{{Machine: 0, Drop: 0.1, Outages: []predict.OutageSpec{{Start: 5, End: 10}}}}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(spec); err != nil {
		t.Fatal(err)
	}
	var back predict.PlatformSpec
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", spec, back)
	}
}

func TestSimulatedSpec(t *testing.T) {
	if _, err := predict.SimulatedSpec(3, 1); err == nil {
		t.Error("unknown platform should fail")
	}
	for _, id := range []int{1, 2} {
		spec, err := predict.SimulatedSpec(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		if len(cfg.CPU) != cfg.Platform.Size() {
			t.Errorf("platform %d: %d load processes for %d machines",
				id, len(cfg.CPU), cfg.Platform.Size())
		}
		if _, constant := cfg.Net.(load.Constant); constant {
			t.Errorf("platform %d: network should carry contention", id)
		}
	}
}

func TestFleetSpecs(t *testing.T) {
	specs := predict.FleetSpecs(40, 5)
	if len(specs) != 40 {
		t.Fatalf("got %d specs", len(specs))
	}
	seen := make(map[string]bool)
	for i, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate tenant name %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(); err != nil {
			t.Fatalf("spec %d invalid: %v", i, err)
		}
	}
	// Same inputs, same fleet: generation must be deterministic.
	if !reflect.DeepEqual(specs, predict.FleetSpecs(40, 5)) {
		t.Fatal("FleetSpecs is not deterministic")
	}
}
