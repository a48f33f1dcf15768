package workload

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestParseScenarioValid(t *testing.T) {
	js := `{
		"version": 1,
		"name": "two-tier",
		"dt": 1,
		"machines": [
			{"kind": "sum", "weights": [0.5, 0.5], "children": [
				{"kind": "diurnal", "base": 0.6, "cycles": [{"period": 300, "amp": 0.2}]},
				{"kind": "single-mode", "mean": 0.8, "sigma": 0.05, "phi": 0.9}
			]},
			{"kind": "flash-crowd", "users": 1, "crowd": 5, "onset": 60, "ramp": 20, "decay": 80}
		],
		"net": {"kind": "preset", "preset": "ethernet-contention"}
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
		"unknown field":   `{"version":1,"name":"x","bogus":1,"machines":[{"kind":"constant","level":0.5}]}`,
		"bad version":     `{"version":9,"name":"x","machines":[{"kind":"constant","level":0.5}]}`,
		"no name":         `{"version":1,"machines":[{"kind":"constant","level":0.5}]}`,
		"no machines":     `{"version":1,"name":"x","machines":[]}`,
		"missing kind":    `{"version":1,"name":"x","machines":[{"level":0.5}]}`,
		"unknown kind":    `{"version":1,"name":"x","machines":[{"kind":"wat"}]}`,
		"unknown preset":  `{"version":1,"name":"x","machines":[{"kind":"preset","preset":"wat"}]}`,
		"sum arity":       `{"version":1,"name":"x","machines":[{"kind":"sum","children":[{"kind":"constant","level":0.5}]}]}`,
		"weight mismatch": `{"version":1,"name":"x","machines":[{"kind":"sum","weights":[1],"children":[{"kind":"constant","level":0.5},{"kind":"constant","level":0.4}]}]}`,
		"clamp bounds":    `{"version":1,"name":"x","machines":[{"kind":"clamp","lo":0.9,"hi":0.2,"children":[{"kind":"constant","level":0.5}]}]}`,
		"switch bounds":   `{"version":1,"name":"x","machines":[{"kind":"switch","at":[200,100],"children":[{"kind":"constant","level":0.5},{"kind":"constant","level":0.4},{"kind":"constant","level":0.3}]}]}`,
		"switch arity":    `{"version":1,"name":"x","machines":[{"kind":"switch","at":[100],"children":[{"kind":"constant","level":0.5}]}]}`,
		"flash params":    `{"version":1,"name":"x","machines":[{"kind":"flash-crowd","users":1,"crowd":5,"ramp":0,"decay":80}]}`,
		"cohort params":   `{"version":1,"name":"x","machines":[{"kind":"cohorts","cohorts":[{"lambda":0,"mu":0.1}]}]}`,
		"diurnal period":  `{"version":1,"name":"x","machines":[{"kind":"diurnal","base":0.5,"cycles":[{"period":0,"amp":0.1}]}]}`,
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
	sc := &ScenarioSpec{Version: SpecVersion, Name: "broken", Machines: []ComponentSpec{{Kind: "wat"}}}
	err := sc.Validate()
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("error should name the scenario: %v", err)
	}
}
