package main

import (
	"math"
	"testing"
)

// FuzzParseValue checks the value parser never panics and that every
// successfully parsed value is well-formed (finite mean, non-negative
// spread). Run with `go test -fuzz=FuzzParseValue ./cmd/stochcalc`.
func FuzzParseValue(f *testing.F) {
	for _, seed := range []string{
		"8", "8±2", "8+-2", "12±30%", "-3.5", "0±0", "1e9±1e8",
		"", "±", "%", "8±", "±2", "8±x%", "nan±1", "inf±1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		v, err := parseValue(in)
		if err != nil {
			return
		}
		if math.IsNaN(v.Mean) || math.IsNaN(v.Spread) {
			t.Fatalf("parseValue(%q) produced NaN: %v", in, v)
		}
		if v.Spread < 0 {
			t.Fatalf("parseValue(%q) produced negative spread: %v", in, v)
		}
	})
}

// FuzzEval checks the expression evaluator never panics on arbitrary
// argument vectors, and that every value it answers without an error is
// finite. Run with `go test -fuzz=FuzzEval ./cmd/stochcalc`.
func FuzzEval(f *testing.F) {
	f.Add("8±2", "+u", "5±1.5")
	f.Add("max-prob", "4±0.5", "3±2")
	f.Add("1", "/u", "0")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		for _, args := range [][]string{{a, b, c}, {a}} {
			v, err := eval(args)
			if err != nil {
				continue
			}
			if math.IsInf(v.Mean, 0) || math.IsNaN(v.Mean) || math.IsInf(v.Spread, 0) || math.IsNaN(v.Spread) {
				t.Fatalf("eval(%q) = %v: not finite", args, v)
			}
		}
	})
}
