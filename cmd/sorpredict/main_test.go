package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestRunOutput pins the whole printed session (partition, predictions,
// intervals, actuals, verdicts) of two invocations by the SHA-256 of their
// output.
func TestRunOutput(t *testing.T) {
	cases := []struct {
		name                     string
		platform, n, iters, runs int
		strategy, sha256         string
	}{
		{"platform1", 1, 400, 10, 5, "mean", "150a99b9f248326997578ff6cca9e684070d9edf9d51a35b73f58dce646b46e1"},
		{"platform2-balanced", 2, 800, 10, 6, "balanced", "7df75ec8ad26b15530b69891362a25e4e0ec5f96b1757c0e44f6259571447d2c"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, c.platform, c.n, c.iters, c.runs, 1, c.strategy); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.sha256 {
				t.Errorf("output sha256 %s, want %s; output:\n%s", got, c.sha256, out.String())
			}
		})
	}
}
