package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestParseScenarioValid(t *testing.T) {
	js := `{
		"version": 2,
		"name": "two-tier",
		"machines": [
			{"kind": "sum", "weights": [0.5, 0.5], "children": [
				{"kind": "diurnal", "base": 0.6, "cycles": [{"period": 300, "amp": 0.2}]},
				{"kind": "single-mode", "mean": 0.8, "sigma": 0.05, "phi": 0.9}
			]},
			{"kind": "flash-crowd", "users": 1, "crowd": 5, "onset": 60, "ramp": 20, "decay": 80}
		],
		"net": {"kind": "ethernet-contention"}
	}`
	sc, err := ParseScenario([]byte(js))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if sc.Name != "two-tier" || len(sc.Machines) != 2 {
		t.Fatalf("unexpected spec: %+v", sc)
	}
	p, err := sc.Machine(0, 42)
	if err != nil {
		t.Fatalf("machine 0: %v", err)
	}
	for tt := 0.0; tt < 100; tt++ {
		if v := p.At(tt); v < 0 || v > 1 {
			t.Fatalf("availability %g outside [0,1] at t=%g", v, tt)
		}
	}
	np, err := sc.NetProcess(7)
	if err != nil || np == nil {
		t.Fatalf("net: %v %v", np, err)
	}
}

func TestParseScenarioRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":   `{"version":2,"name":"x","bogus":1,"machines":[{"kind":"constant","level":0.5}]}`,
		"bad version":     `{"version":1,"name":"x","machines":[{"kind":"constant","level":0.5}]}`,
		"no name":         `{"version":2,"machines":[{"kind":"constant","level":0.5}]}`,
		"no machines":     `{"version":2,"name":"x","machines":[]}`,
		"missing kind":    `{"version":2,"name":"x","machines":[{"level":0.5}]}`,
		"unknown kind":    `{"version":2,"name":"x","machines":[{"kind":"wat"}]}`,
		"preset kind":     `{"version":2,"name":"x","machines":[{"kind":"preset","preset":"light"}]}`,
		"level above 1":   `{"version":2,"name":"x","machines":[{"kind":"constant","level":1.5}]}`,
		"negative dt":     `{"version":2,"name":"x","machines":[{"kind":"single-mode","mean":0.5,"sigma":0.1,"dt":-1}]}`,
		"sum arity":       `{"version":2,"name":"x","machines":[{"kind":"sum","children":[{"kind":"constant","level":0.5}]}]}`,
		"weight mismatch": `{"version":2,"name":"x","machines":[{"kind":"sum","weights":[1],"children":[{"kind":"constant","level":0.5},{"kind":"constant","level":0.4}]}]}`,
		"clamp bounds":    `{"version":2,"name":"x","machines":[{"kind":"clamp","lo":0.9,"hi":0.2,"children":[{"kind":"constant","level":0.5}]}]}`,
		"switch bounds":   `{"version":2,"name":"x","machines":[{"kind":"switch","at":[200,100],"children":[{"kind":"constant","level":0.5},{"kind":"constant","level":0.4},{"kind":"constant","level":0.3}]}]}`,
		"switch arity":    `{"version":2,"name":"x","machines":[{"kind":"switch","at":[100],"children":[{"kind":"constant","level":0.5}]}]}`,
		"flash params":    `{"version":2,"name":"x","machines":[{"kind":"flash-crowd","users":1,"crowd":5,"ramp":0,"decay":80}]}`,
		"cohort params":   `{"version":2,"name":"x","machines":[{"kind":"cohorts","cohorts":[{"lambda":0,"mu":0.1}]}]}`,
		"diurnal period":  `{"version":2,"name":"x","machines":[{"kind":"diurnal","base":0.5,"cycles":[{"period":0,"amp":0.1}]}]}`,
	}
	for name, js := range cases {
		if _, err := ParseScenario([]byte(js)); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}

// TestComponentDeterminism asserts the core contract: the same spec and
// seed reproduce every sample bit-identically across independent builds.
func TestComponentDeterminism(t *testing.T) {
	for _, name := range Names() {
		sc, _ := Lookup(name)
		for m := 0; m < len(sc.Machines); m++ {
			a, err := sc.Machine(m, 1234)
			if err != nil {
				t.Fatalf("%s machine %d: %v", name, m, err)
			}
			b, err := sc.Machine(m, 1234)
			if err != nil {
				t.Fatalf("%s machine %d: %v", name, m, err)
			}
			for i := 0; i < 400; i++ {
				tt := float64(i) * a.Interval()
				if va, vb := a.At(tt), b.At(tt); va != vb {
					t.Fatalf("%s machine %d diverges at t=%g: %g vs %g", name, m, tt, va, vb)
				}
			}
		}
	}
}

// TestComponentSeedSensitivity: distinct seeds should produce distinct
// stochastic sample paths (deterministic components exempt).
func TestComponentSeedSensitivity(t *testing.T) {
	sc, ok := Lookup("flash-crowd")
	if !ok {
		t.Fatal("flash-crowd missing from library")
	}
	a, _ := sc.Machine(0, 1)
	b, _ := sc.Machine(0, 2)
	same := true
	for i := 0; i < 500 && same; i++ {
		tt := float64(i) * a.Interval()
		if a.At(tt) != b.At(tt) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical flash-crowd paths")
	}
}

func TestMachineWraparound(t *testing.T) {
	sc, _ := Lookup("quiet-baseline")
	n := len(sc.Machines)
	// Machine n must reuse entry 0's component but with the caller's seed.
	a, err := sc.Machine(n, 99)
	if err != nil {
		t.Fatalf("wraparound build: %v", err)
	}
	b, err := sc.Machine(0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.At(10) != b.At(10) {
		t.Fatalf("entry %d with same seed should match entry 0: %g vs %g", n, a.At(10), b.At(10))
	}
	if _, err := sc.Machine(-1, 0); err == nil {
		t.Fatal("negative machine index accepted")
	}
}

func TestHashStableAndSensitive(t *testing.T) {
	a, _ := Lookup("diurnal-web")
	// The library's spec is shared and read-only; an independent copy to
	// edit comes from its own JSON.
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("hash differs across a JSON round trip of the same scenario")
	}
	b.Machines[0].Children[0].Base += 0.01
	if a.Hash() == b.Hash() {
		t.Fatal("hash insensitive to spec change")
	}
	if len(a.Hash()) != 16 {
		t.Fatalf("hash length %d, want 16 hex chars", len(a.Hash()))
	}
}

func TestValidateErrorsNameTheScenario(t *testing.T) {
	sc := &ScenarioSpec{Version: SpecVersion, Name: "broken", Machines: []LoadSpec{{Kind: "wat"}}}
	err := sc.Validate()
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("error should name the scenario: %v", err)
	}
}

// TestLibraryJSONRoundTrip: every library scenario survives json.Marshal →
// ParseScenario with the same Hash and the same samples on every entry.
func TestLibraryJSONRoundTrip(t *testing.T) {
	for _, name := range Names() {
		sc, _ := Lookup(name)
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseScenario(data)
		if err != nil {
			t.Fatalf("%s: marshalled scenario refused: %v", name, err)
		}
		if back.Hash() != sc.Hash() {
			t.Errorf("%s: hash %s after the round trip, %s before", name, back.Hash(), sc.Hash())
		}
		for m := range sc.Machines {
			a, errA := sc.Machine(m, 3)
			b, errB := back.Machine(m, 3)
			if errA != nil || errB != nil {
				t.Fatalf("%s machine %d: %v, %v", name, m, errA, errB)
			}
			if digest(a) != digest(b) {
				t.Errorf("%s machine %d: samples differ after the round trip", name, m)
			}
		}
		a, errA := sc.NetProcess(3)
		b, errB := back.NetProcess(3)
		if errA != nil || errB != nil {
			t.Fatalf("%s net: %v, %v", name, errA, errB)
		}
		if (a == nil) != (b == nil) || a != nil && digest(a) != digest(b) {
			t.Errorf("%s: net samples differ after the round trip", name)
		}
	}
}

// FuzzParseScenario: ParseScenario never panics, and the JSON of anything it
// accepts is a fixed point of parse → marshal. Inputs that could name a
// trace file are skipped: that load kind opens files.
func FuzzParseScenario(f *testing.F) {
	for _, name := range Names() {
		sc, _ := Lookup(name)
		data, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":2,"name":"x","machines":[{"kind":"scenario","scenario":"flash-crowd","machine":2},
	  {"kind":"markov-modal","modes":[{"mean":0.3,"sigma":0.05},{"mean":0.8,"sigma":0.05}],"weights":[1,1],"switch_prob":0.1,"dt":2}],
	  "net":{"kind":"scenario","scenario":"diurnal-web"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.Contains(data, []byte("trace")) || bytes.Contains(data, []byte(`\u`)) {
			return
		}
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		once, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		again, err := ParseScenario(once)
		if err != nil {
			t.Fatalf("marshalled scenario is refused: %v\n%s", err, once)
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
