package main

import (
	"math"
	"strings"
	"testing"

	"prodpred/internal/stochastic"
)

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want stochastic.Value
	}{
		{"8", stochastic.Point(8)},
		{"-3.5", stochastic.Point(-3.5)},
		{"8±2", stochastic.New(8, 2)},
		{"8+-2", stochastic.New(8, 2)},
		{"12±30%", stochastic.New(12, 3.6)},
		{"12+-30%", stochastic.New(12, 3.6)},
	}
	for _, c := range cases {
		got, err := parseValue(c.in)
		if err != nil {
			t.Errorf("parseValue(%q): %v", c.in, err)
			continue
		}
		if !got.ApproxEqual(c.want, 1e-12) {
			t.Errorf("parseValue(%q)=%v want %v", c.in, got, c.want)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "8±x", "8±5x%", "8±-2", "±2"} {
		if _, err := parseValue(in); err == nil {
			t.Errorf("parseValue(%q) should fail", in)
		}
	}
}

func TestEvalChain(t *testing.T) {
	v, err := eval([]string{"8±2", "+u", "5±1.5", "*r", "2"})
	if err != nil {
		t.Fatal(err)
	}
	// (8±2 +u 5±1.5) = 13±2.5; *r 2 = 26±5.
	if out := v.String(); !strings.Contains(out, "26") || !strings.Contains(out, "5") {
		t.Errorf("eval chain=%q", out)
	}
	for _, op := range []string{"+r", "-r", "-u", "*u", "/r", "/u"} {
		if _, err := eval([]string{"8±2", op, "5±1.5"}); err != nil {
			t.Errorf("op %s: %v", op, err)
		}
	}
}

func TestEvalMax(t *testing.T) {
	v, err := eval([]string{"max-mean", "4±0.5", "3±2", "3±1"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v.String(), "4 ±") {
		t.Errorf("max-mean=%v", v)
	}
	v, err = eval([]string{"max-mag", "4±0.5", "3±2"})
	if err != nil || !strings.HasPrefix(v.String(), "3 ±") {
		t.Errorf("max-mag=%v err=%v", v, err)
	}
	v, err = eval([]string{"max-prob", "4±0.5", "3±2"})
	if err != nil || math.Abs(v.Mean-4.1) > 0.2 {
		t.Errorf("max-prob=%v err=%v", v, err)
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := eval([]string{"8±2", "+u"}); err == nil {
		t.Error("dangling operator should fail")
	}
	if _, err := eval([]string{"8±2", "??", "1"}); err == nil {
		t.Error("unknown operator should fail")
	}
	if _, err := eval([]string{"bad"}); err == nil {
		t.Error("bad value should fail")
	}
	if _, err := eval([]string{"8", "+u", "bad"}); err == nil {
		t.Error("bad rhs should fail")
	}
	if _, err := eval([]string{"max-mean"}); err == nil {
		t.Error("empty max should fail")
	}
	if _, err := eval([]string{"max-mean", "bad"}); err == nil {
		t.Error("bad max operand should fail")
	}
	// Undefined or overflowing arithmetic is an error, not an Inf or a NaN.
	for _, args := range [][]string{
		{"8±2", "/u", "0±0"},
		{"0", "/u", "0"},
		{"8±2", "/r", "0±1"},
		{"1e308", "*r", "1e308"},
		{"1e308", "+u", "1e308", "-u", "1"},
		{"1e308±1e308%"},
	} {
		if v, err := eval(args); err == nil {
			t.Errorf("eval(%q) = %v, want an error", args, v)
		}
	}
}
