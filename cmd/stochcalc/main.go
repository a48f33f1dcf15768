// Command stochcalc is a calculator for stochastic values, demonstrating
// the paper's Table 2 combination rules from the shell.
//
// Values are written MEAN, MEAN±SPREAD, or MEAN±PCT% (e.g. "12±30%").
// Operators: +r +u -r -u *r *u /r /u (related/unrelated), and the group
// operators max-mean, max-mag, max-prob over the remaining operands.
//
// Examples:
//
//	stochcalc 8±2 +u 5±1.5
//	stochcalc 12±30% *r 3
//	stochcalc max-prob 4±0.5 3±2 3±1
package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"prodpred/internal/stochastic"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	v, err := eval(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stochcalc:", err)
		os.Exit(1)
	}
	fmt.Println(v)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: stochcalc VALUE OP VALUE [OP VALUE ...]
       stochcalc max-mean|max-mag|max-prob VALUE VALUE [VALUE ...]
values: 8, 8±2, 12±30%   ops: +r +u -r -u *r *u /r /u`)
}

// eval computes the expression in args. It refuses what float64 arithmetic
// cannot answer: a division by a zero-mean value, and any result whose mean
// or spread is not finite (an overflow, or a NaN).
func eval(args []string) (stochastic.Value, error) {
	switch args[0] {
	case "max-mean", "max-mag", "max-prob":
		strategy := map[string]stochastic.MaxStrategy{
			"max-mean": stochastic.LargestMean,
			"max-mag":  stochastic.LargestMagnitude,
			"max-prob": stochastic.Probabilistic,
		}[args[0]]
		var vs []stochastic.Value
		for _, a := range args[1:] {
			v, err := parseValue(a)
			if err != nil {
				return stochastic.Value{}, err
			}
			vs = append(vs, v)
		}
		res, err := stochastic.Max(strategy, vs...)
		if err != nil {
			return stochastic.Value{}, err
		}
		return finite(res)
	}

	acc, err := parseValue(args[0])
	if err != nil {
		return stochastic.Value{}, err
	}
	rest := args[1:]
	for len(rest) > 0 {
		if _, err := finite(acc); err != nil {
			return stochastic.Value{}, err
		}
		if len(rest) < 2 {
			return stochastic.Value{}, fmt.Errorf("dangling operator %q", rest[0])
		}
		op := rest[0]
		rhs, err := parseValue(rest[1])
		if err != nil {
			return stochastic.Value{}, err
		}
		if (op == "/r" || op == "/u") && rhs.Mean == 0 {
			return stochastic.Value{}, fmt.Errorf("division by the zero-mean value %q", rest[1])
		}
		switch op {
		case "+r":
			acc = acc.AddRelated(rhs)
		case "+u":
			acc = acc.AddUnrelated(rhs)
		case "-r":
			acc = acc.SubRelated(rhs)
		case "-u":
			acc = acc.SubUnrelated(rhs)
		case "*r":
			acc = acc.MulRelated(rhs)
		case "*u":
			acc = acc.MulUnrelated(rhs)
		case "/r":
			acc = acc.DivRelated(rhs)
		case "/u":
			acc = acc.DivUnrelated(rhs)
		default:
			return stochastic.Value{}, fmt.Errorf("unknown operator %q", op)
		}
		rest = rest[2:]
	}
	return finite(acc)
}

// finite passes v through, or refuses it when its mean or spread is
// infinite or NaN.
func finite(v stochastic.Value) (stochastic.Value, error) {
	if math.IsInf(v.Mean, 0) || math.IsNaN(v.Mean) || math.IsInf(v.Spread, 0) || math.IsNaN(v.Spread) {
		return stochastic.Value{}, fmt.Errorf("result %v is not finite", v)
	}
	return v, nil
}

// parseValue accepts "8", "8±2", "8+-2", "12±30%", "12+-30%".
func parseValue(s string) (stochastic.Value, error) {
	norm := strings.ReplaceAll(s, "±", "+-")
	parts := strings.SplitN(norm, "+-", 2)
	mean, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return stochastic.Value{}, fmt.Errorf("bad value %q: %v", s, err)
	}
	if math.IsNaN(mean) || math.IsInf(mean, 0) {
		return stochastic.Value{}, fmt.Errorf("non-finite mean in %q", s)
	}
	if len(parts) == 1 {
		return stochastic.Point(mean), nil
	}
	spreadStr := parts[1]
	if strings.HasSuffix(spreadStr, "%") {
		pct, err := strconv.ParseFloat(strings.TrimSuffix(spreadStr, "%"), 64)
		if err != nil {
			return stochastic.Value{}, fmt.Errorf("bad percentage in %q: %v", s, err)
		}
		return stochastic.FromPercent(mean, pct), nil
	}
	spread, err := strconv.ParseFloat(spreadStr, 64)
	if err != nil {
		return stochastic.Value{}, fmt.Errorf("bad spread in %q: %v", s, err)
	}
	if math.IsInf(spread, 0) {
		return stochastic.Value{}, fmt.Errorf("non-finite spread in %q", s)
	}
	return stochastic.TryNew(mean, spread)
}
