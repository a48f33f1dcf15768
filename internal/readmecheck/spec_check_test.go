package readmecheck

import (
	"reflect"
	"strings"
	"testing"

	"prodpred/internal/predict"
)

// TestOperationsDocumentsEverySpecField keeps the fleet-mode section of
// OPERATIONS.md in step with the spec types: every JSON key of a platform
// spec and of its machine, link, load, mode, fault and outage entries is
// named there
// (quoted in an example or in backticks), and the section's example spec
// file parses as predictd -specs would read it. A spec field added without
// documentation, or one removed while the example still uses it, fails here.
func TestOperationsDocumentsEverySpecField(t *testing.T) {
	ops := readRepoFile(t, "OPERATIONS.md")
	for _, typ := range []any{predict.PlatformSpec{}, predict.MachineSpec{}, predict.LinkSpec{},
		predict.LoadSpec{}, predict.ModeSpec{}, predict.FaultSpec{}, predict.OutageSpec{}} {
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

	_, fleet, ok := strings.Cut(ops, "## Fleet mode")
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
	if len(specs) == 0 {
		t.Fatal("the fleet-mode example holds no spec")
	}
}
