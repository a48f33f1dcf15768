package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prodpred/internal/workload"
)

// TestSpecFileMatchesLibrary: -spec over a library scenario's marshalled
// JSON writes the same trace bytes, header included, as -scenario does.
func TestSpecFileMatchesLibrary(t *testing.T) {
	dir := t.TempDir()
	for _, name := range workload.Names() {
		sc, _ := workload.Lookup(name)
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		spec := filepath.Join(dir, name+".json")
		if err := os.WriteFile(spec, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var traces [2][]byte
		for i, src := range [][]string{{"-scenario", name}, {"-spec", spec}} {
			out := filepath.Join(dir, name+".trace")
			var stderr bytes.Buffer
			args := append(src, "-machine", "1", "-duration", "900", "-seed", "7", "-o", out)
			if code := run(args, io.Discard, &stderr); code != 0 {
				t.Fatalf("%s %v: exit %d: %s", name, src, code, stderr.String())
			}
			if traces[i], err = os.ReadFile(out); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(traces[0], traces[1]) {
			t.Errorf("%s: -spec trace differs from -scenario trace", name)
		}
	}
}

// TestVersionOneSpecRefused: a scenario file of the old format version
// exits non-zero with an error naming the version.
func TestVersionOneSpecRefused(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "old.json")
	v1 := `{"version":1,"name":"old","dt":1,"machines":[{"kind":"heavy-tail","peak":0.9,"dropMean":0.1,"dropStd":0.05}]}`
	if err := os.WriteFile(spec, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if code := run([]string{"-spec", spec}, io.Discard, &stderr); code == 0 {
		t.Fatal("a version-1 scenario file was accepted")
	}
	if !strings.Contains(stderr.String(), "version 1") {
		t.Fatalf("error does not name the version: %q", stderr.String())
	}
}

// TestNoModeIsUsage: with none of -list, -scenario, -spec or -replay,
// loadgen prints its usage and exits 2.
func TestNoModeIsUsage(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(nil, io.Discard, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-scenario") {
		t.Fatalf("no usage on stderr: %q", stderr.String())
	}
}
