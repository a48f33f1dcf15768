// Package structural implements structural performance models (Schopf '97)
// extended with stochastic parameters, the paper's §2.2: a prediction model
// is an expression tree of component models over named parameters, and
// evaluating the tree with stochastic parameter values yields a stochastic
// prediction.
//
// Composition nodes mirror the paper's combination rules: sums and products
// come in related/unrelated variants (Table 2), and group operators (Max)
// take an explicit resolution strategy (§2.3.3).
package structural

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"prodpred/internal/stochastic"
)

// Params maps parameter names to stochastic values. Point parameters are
// stochastic.Point values.
type Params map[string]stochastic.Value

// Clone returns a copy of the parameter set.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Component is a node of a structural model: it evaluates to a stochastic
// value given the model parameters.
type Component interface {
	Eval(p Params) (stochastic.Value, error)
	// String renders the component as a readable expression.
	String() string
}

// Param references a named model parameter.
type Param string

// Eval implements Component.
func (r Param) Eval(p Params) (stochastic.Value, error) {
	v, ok := p[string(r)]
	if !ok {
		return stochastic.Value{}, fmt.Errorf("structural: missing parameter %q", string(r))
	}
	return v, nil
}

// String implements Component.
func (r Param) String() string { return string(r) }

// Const is a fixed stochastic value embedded in the model.
type Const struct{ V stochastic.Value }

// Eval implements Component.
func (c Const) Eval(Params) (stochastic.Value, error) { return c.V, nil }

// String implements Component.
func (c Const) String() string { return c.V.String() }

// PointConst returns a Const holding a point value.
func PointConst(x float64) Const { return Const{V: stochastic.Point(x)} }

// Relation tags a combining node with the paper's relatedness judgement.
type Relation int

// Related distributions are causally coupled (conservative combination);
// Unrelated distributions are independent (root-sum-square combination).
const (
	Related Relation = iota
	Unrelated
)

func (r Relation) String() string {
	if r == Related {
		return "related"
	}
	return "unrelated"
}

// Sum adds its terms under the given relation.
type Sum struct {
	Rel   Relation
	Terms []Component
}

// Eval implements Component.
func (s Sum) Eval(p Params) (stochastic.Value, error) {
	if len(s.Terms) == 0 {
		return stochastic.Value{}, errors.New("structural: empty sum")
	}
	vals := make([]stochastic.Value, len(s.Terms))
	for i, t := range s.Terms {
		v, err := t.Eval(p)
		if err != nil {
			return stochastic.Value{}, err
		}
		vals[i] = v
	}
	if s.Rel == Related {
		return stochastic.SumRelated(vals...), nil
	}
	return stochastic.SumUnrelated(vals...), nil
}

// String implements Component.
func (s Sum) String() string {
	parts := make([]string, len(s.Terms))
	for i, t := range s.Terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, " +"+s.Rel.String()[:3]+" ") + ")"
}

// Div divides A by B under the given relation.
type Div struct {
	Rel  Relation
	A, B Component
}

// Eval implements Component.
func (d Div) Eval(p Params) (stochastic.Value, error) {
	a, err := d.A.Eval(p)
	if err != nil {
		return stochastic.Value{}, err
	}
	b, err := d.B.Eval(p)
	if err != nil {
		return stochastic.Value{}, err
	}
	if b.Mean == 0 {
		return stochastic.Value{}, errZeroDivisor(d.B.String())
	}
	if d.Rel == Related {
		return a.DivRelated(b), nil
	}
	return a.DivUnrelated(b), nil
}

// String implements Component.
func (d Div) String() string {
	return fmt.Sprintf("(%s /%s %s)", d.A.String(), d.Rel.String()[:3], d.B.String())
}

// Scale multiplies a component by a point factor (e.g. NumIts).
type Scale struct {
	K float64
	C Component
}

// Eval implements Component.
func (s Scale) Eval(p Params) (stochastic.Value, error) {
	v, err := s.C.Eval(p)
	if err != nil {
		return stochastic.Value{}, err
	}
	return v.MulPoint(s.K), nil
}

// String implements Component.
func (s Scale) String() string { return fmt.Sprintf("(%g * %s)", s.K, s.C.String()) }

// MaxOver applies the Max group operator with the given strategy.
type MaxOver struct {
	Strategy stochastic.MaxStrategy
	Terms    []Component
}

// Eval implements Component.
func (m MaxOver) Eval(p Params) (stochastic.Value, error) {
	if len(m.Terms) == 0 {
		return stochastic.Value{}, errEmptyMax
	}
	vals := make([]stochastic.Value, len(m.Terms))
	for i, t := range m.Terms {
		v, err := t.Eval(p)
		if err != nil {
			return stochastic.Value{}, err
		}
		vals[i] = v
	}
	return stochastic.Max(m.Strategy, vals...)
}

// String implements Component.
func (m MaxOver) String() string {
	parts := make([]string, len(m.Terms))
	for i, t := range m.Terms {
		parts[i] = t.String()
	}
	return "Max{" + strings.Join(parts, ", ") + "}"
}

// Repeat combines K iid copies of a component under the given relation:
// Related yields mean*K ± spread*K — identical to Scale and the paper's
// implicit choice when summing over iterations, since each iteration draws
// from the same system state — while Unrelated yields mean*K ±
// spread*sqrt(K), treating iterations as independent draws. The difference
// is the subject of the iteration-relation ablation.
type Repeat struct {
	K   float64
	Rel Relation
	C   Component
}

// Eval implements Component.
func (r Repeat) Eval(p Params) (stochastic.Value, error) {
	if r.K < 0 {
		return stochastic.Value{}, fmt.Errorf("structural: negative repeat count %g", r.K)
	}
	v, err := r.C.Eval(p)
	if err != nil {
		return stochastic.Value{}, err
	}
	return r.Of(v), nil
}

// Of combines K copies of a component whose value is already known: Eval
// past the evaluation of C.
func (r Repeat) Of(v stochastic.Value) stochastic.Value {
	if r.Rel == Related {
		return v.MulPoint(r.K)
	}
	return stochastic.Value{Mean: v.Mean * r.K, Spread: v.Spread * math.Sqrt(r.K)}
}

// String implements Component.
func (r Repeat) String() string {
	return fmt.Sprintf("(%g x%s %s)", r.K, r.Rel.String()[:3], r.C.String())
}
