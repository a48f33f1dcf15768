package structural

import (
	"math"
	"strings"
	"testing"

	"prodpred/internal/stochastic"
)

func TestParamEval(t *testing.T) {
	p := Params{"x": stochastic.New(3, 1)}
	v, err := Param("x").Eval(p)
	if err != nil || v != stochastic.New(3, 1) {
		t.Errorf("Eval=%v err=%v", v, err)
	}
	if _, err := Param("missing").Eval(p); err == nil {
		t.Error("missing parameter should fail")
	}
	if Param("x").String() != "x" {
		t.Error("String")
	}
}

func TestParamsClone(t *testing.T) {
	p := Params{"x": stochastic.Point(1)}
	c := p.Clone()
	c["x"] = stochastic.Point(2)
	if p["x"] != stochastic.Point(1) {
		t.Error("Clone aliases the original")
	}
}

func TestConstEval(t *testing.T) {
	c := PointConst(5)
	v, err := c.Eval(nil)
	if err != nil || v != stochastic.Point(5) {
		t.Errorf("Eval=%v err=%v", v, err)
	}
	if c.String() != "5" {
		t.Errorf("String=%q", c.String())
	}
}

func TestSumEval(t *testing.T) {
	p := Params{
		"a": stochastic.New(3, 3),
		"b": stochastic.New(4, 4),
	}
	rel := Sum{Rel: Related, Terms: []Component{Param("a"), Param("b")}}
	v, err := rel.Eval(p)
	if err != nil || v != stochastic.New(7, 7) {
		t.Errorf("related sum=%v err=%v", v, err)
	}
	unrel := Sum{Rel: Unrelated, Terms: []Component{Param("a"), Param("b")}}
	v, err = unrel.Eval(p)
	if err != nil || !v.ApproxEqual(stochastic.New(7, 5), 1e-12) {
		t.Errorf("unrelated sum=%v err=%v", v, err)
	}
	if _, err := (Sum{}).Eval(p); err == nil {
		t.Error("empty sum should fail")
	}
	if _, err := (Sum{Terms: []Component{Param("zz")}}).Eval(p); err == nil {
		t.Error("missing param should propagate")
	}
}

func TestMulDivEval(t *testing.T) {
	p := Params{
		"a": stochastic.New(10, 1),
		"b": stochastic.New(5, 2),
	}
	v, err := (Div{Rel: Unrelated, A: Param("a"), B: Param("b")}).Eval(p)
	if err != nil || math.Abs(v.Mean-2) > 1e-12 {
		t.Errorf("div=%v err=%v", v, err)
	}
	if _, err := (Div{Rel: Related, A: Param("a"), B: PointConst(0)}).Eval(p); err == nil {
		t.Error("divide by zero should fail")
	}
	if _, err := (Div{Rel: Related, A: Param("zz"), B: Param("a")}).Eval(p); err == nil {
		t.Error("missing div A should fail")
	}
	if _, err := (Div{Rel: Related, A: Param("a"), B: Param("zz")}).Eval(p); err == nil {
		t.Error("missing div B should fail")
	}
}

func TestScaleEval(t *testing.T) {
	p := Params{"a": stochastic.New(2, 0.5)}
	v, err := (Scale{K: 10, C: Param("a")}).Eval(p)
	if err != nil || v != stochastic.New(20, 5) {
		t.Errorf("scale=%v err=%v", v, err)
	}
	if _, err := (Scale{K: 2, C: Param("zz")}).Eval(p); err == nil {
		t.Error("missing param should propagate")
	}
}

func TestMaxOverEval(t *testing.T) {
	p := Params{
		"a": stochastic.New(4, 0.5),
		"b": stochastic.New(3, 2),
	}
	v, err := (MaxOver{Strategy: stochastic.LargestMean,
		Terms: []Component{Param("a"), Param("b")}}).Eval(p)
	if err != nil || v != stochastic.New(4, 0.5) {
		t.Errorf("max=%v err=%v", v, err)
	}
	v, err = (MaxOver{Strategy: stochastic.LargestMagnitude,
		Terms: []Component{Param("a"), Param("b")}}).Eval(p)
	if err != nil || v != stochastic.New(3, 2) {
		t.Errorf("max magnitude=%v err=%v", v, err)
	}
	if _, err := (MaxOver{}).Eval(p); err == nil {
		t.Error("empty max should fail")
	}
	if _, err := (MaxOver{Terms: []Component{Param("zz")}}).Eval(p); err == nil {
		t.Error("missing param should propagate")
	}
}

func TestNestedModelEvaluation(t *testing.T) {
	// A small latency+bandwidth model: Comm = Latency + MsgSize/Bandwidth
	// (§2.3.1's example), with stochastic latency and bandwidth.
	p := Params{
		"latency":   stochastic.New(0.01, 0.002),
		"bandwidth": stochastic.New(1e6, 2e5),
	}
	comm := Sum{Rel: Related, Terms: []Component{
		Param("latency"),
		Div{Rel: Unrelated, A: PointConst(5e5), B: Param("bandwidth")},
	}}
	v, err := comm.Eval(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.Mean-0.51) > 1e-9 {
		t.Errorf("comm mean=%g want 0.51", v.Mean)
	}
	if v.Spread <= 0.002 {
		t.Errorf("spread=%g should include bandwidth uncertainty", v.Spread)
	}
}

func TestRepeatRelatedEqualsScale(t *testing.T) {
	p := Params{"a": stochastic.New(2, 0.5)}
	rep, err := (Repeat{K: 10, Rel: Related, C: Param("a")}).Eval(p)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := (Scale{K: 10, C: Param("a")}).Eval(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep != sc {
		t.Errorf("related repeat %v != scale %v", rep, sc)
	}
}

func TestRepeatUnrelatedSqrtScaling(t *testing.T) {
	p := Params{"a": stochastic.New(2, 0.5)}
	v, err := (Repeat{K: 16, Rel: Unrelated, C: Param("a")}).Eval(p)
	if err != nil {
		t.Fatal(err)
	}
	// mean*16, spread*sqrt(16)=4.
	if !v.ApproxEqual(stochastic.New(32, 2), 1e-12) {
		t.Errorf("unrelated repeat=%v want 32±2", v)
	}
	// Unrelated repeat is narrower than related for K > 1.
	r, _ := (Repeat{K: 16, Rel: Related, C: Param("a")}).Eval(p)
	if v.Spread >= r.Spread {
		t.Errorf("unrelated spread %g should be below related %g", v.Spread, r.Spread)
	}
}

func TestRepeatValidation(t *testing.T) {
	p := Params{"a": stochastic.New(2, 0.5)}
	if _, err := (Repeat{K: -1, Rel: Related, C: Param("a")}).Eval(p); err == nil {
		t.Error("negative K should fail")
	}
	if _, err := (Repeat{K: 2, Rel: Related, C: Param("zz")}).Eval(p); err == nil {
		t.Error("missing param should propagate")
	}
	if s := (Repeat{K: 3, Rel: Unrelated, C: Param("a")}).String(); !strings.Contains(s, "xunr") {
		t.Errorf("Repeat string %q", s)
	}
	// K = 0 collapses to the zero point value under both relations.
	z, err := (Repeat{K: 0, Rel: Unrelated, C: Param("a")}).Eval(p)
	if err != nil || z != stochastic.Point(0) {
		t.Errorf("zero repeat=%v err=%v", z, err)
	}
}

func TestStringRendering(t *testing.T) {
	m := Scale{K: 3, C: Sum{Rel: Related, Terms: []Component{
		Param("a"),
		Div{Rel: Unrelated, A: Param("b"), B: PointConst(2)},
	}}}
	s := m.String()
	for _, want := range []string{"a", "b", "3", "2", "/unr", "+rel"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	d := Div{Rel: Related, A: Param("x"), B: Param("y")}
	if !strings.Contains(d.String(), "/rel") {
		t.Errorf("div string %q", d.String())
	}
	mo := MaxOver{Terms: []Component{Param("x")}}
	if !strings.Contains(mo.String(), "Max{") {
		t.Errorf("max string %q", mo.String())
	}
	if Related.String() != "related" || Unrelated.String() != "unrelated" {
		t.Error("relation strings")
	}
}
