package readmecheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"prodpred/internal/load"
	"prodpred/internal/predict"
	"prodpred/internal/workload"
)

// TestOperationsDocumentsEverySpecField keeps the fleet-mode section of
// OPERATIONS.md in step with the spec types: every JSON key of a platform
// spec and of its machine, link, load, mode, cycle, cohort, fault and outage
// entries is named there
// (quoted in an example or in backticks), and the section's example spec
// file parses as predictd -specs would read it. A spec field added without
// documentation, or one removed while the example still uses it, fails here.
func TestOperationsDocumentsEverySpecField(t *testing.T) {
	ops := readRepoFile(t, "OPERATIONS.md")
	for _, typ := range []any{predict.PlatformSpec{}, predict.MachineSpec{}, predict.LinkSpec{},
		workload.LoadSpec{}, load.ModeSpec{}, workload.Cycle{}, workload.Cohort{},
		predict.FaultSpec{}, predict.OutageSpec{}} {
		rt := reflect.TypeOf(typ)
		for i := 0; i < rt.NumField(); i++ {
			key, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
			if key == "" || key == "-" {
				t.Fatalf("%s.%s has no JSON key", rt.Name(), rt.Field(i).Name)
			}
			if !strings.Contains(ops, `"`+key+`"`) && !strings.Contains(ops, "`"+key+"`") {
				t.Errorf("OPERATIONS.md does not name %s's JSON key %q", rt.Name(), key)
			}
		}
	}

	if len(fleetModeExample(t)) == 0 {
		t.Fatal("the fleet-mode example holds no spec")
	}
}

// fleetModeExample parses the example spec file of OPERATIONS.md's
// fleet-mode section as predictd -specs would read it.
func fleetModeExample(t *testing.T) []predict.PlatformSpec {
	t.Helper()
	_, fleet, ok := strings.Cut(readRepoFile(t, "OPERATIONS.md"), "## Fleet mode")
	if !ok {
		t.Fatal(`OPERATIONS.md has no "## Fleet mode" section`)
	}
	_, example, ok := strings.Cut(fleet, "```json\n")
	if !ok {
		t.Fatal("the fleet-mode section has no ```json example")
	}
	example, _, ok = strings.Cut(example, "```")
	if !ok {
		t.Fatal("the fleet-mode example is not closed")
	}
	specs, err := predict.ParseSpecs(strings.NewReader(example))
	if err != nil {
		t.Fatalf("the fleet-mode example does not parse: %v", err)
	}
	return specs
}

// TestOperationsKindTable keeps OPERATIONS.md's load-kind table in step
// with workload.LoadSpec.Build: every kind a case of Build's switch accepts
// has a row, and every kind the table names is one Build accepts.
func TestOperationsKindTable(t *testing.T) {
	built := buildKinds(t)
	if len(built) < 10 {
		t.Fatalf("found only %d kinds in LoadSpec.Build: %v", len(built), built)
	}
	ops := readRepoFile(t, "OPERATIONS.md")
	_, table, ok := strings.Cut(ops, "| `kind` | keys it reads | generator |\n")
	if !ok {
		t.Fatal("OPERATIONS.md has no load-kind table")
	}
	var documented []string
	for _, line := range strings.Split(table, "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cell := strings.Split(line, "|")[1]
		for _, part := range strings.Split(cell, "`")[1:] {
			if part = strings.TrimSpace(part); part != "" && !strings.ContainsAny(part, " ,") {
				documented = append(documented, part)
			}
		}
	}
	for _, k := range built {
		if !slices.Contains(documented, k) {
			t.Errorf("OPERATIONS.md's kind table has no row for %q", k)
		}
	}
	for _, k := range documented {
		if !slices.Contains(built, k) {
			t.Errorf("OPERATIONS.md's kind table names %q, which LoadSpec.Build does not build", k)
		}
	}
}

// buildKinds returns the string cases of the switch in
// internal/workload/spec.go's LoadSpec.Build, the empty kind left out.
func buildKinds(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../workload/spec.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "Build" || fn.Recv == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			for _, st := range sw.Body.List {
				for _, e := range st.(*ast.CaseClause).List {
					if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if k, _ := strconv.Unquote(lit.Value); k != "" {
							kinds = append(kinds, k)
						}
					}
				}
			}
			return false
		})
	}
	return kinds
}
