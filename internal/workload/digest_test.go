package workload

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"prodpred/internal/load"
)

// digestSamples is how many ticks of each process a library digest covers.
const digestSamples = 3000

// digest is the SHA-256 of a process's first digestSamples samples, one per
// tick, as little-endian float64 bits.
func digest(p load.Process) string {
	h := sha256.New()
	var b [8]byte
	for i := 0; i < digestSamples; i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.At(float64(i)*p.Interval())))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// libraryDigests digests every library scenario's machine entries and net
// process at seeds 1 and 7, keyed "scenario/machine-i/seed-s" and
// "scenario/net/seed-s".
func libraryDigests(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, name := range Names() {
		sc, _ := Lookup(name)
		for _, seed := range []int64{1, 7} {
			for m := range sc.Machines {
				p, err := sc.Machine(m, seed)
				if err != nil {
					t.Fatalf("%s machine %d: %v", name, m, err)
				}
				out[fmt.Sprintf("%s/machine-%d/seed-%d", name, m, seed)] = digest(p)
			}
			p, err := sc.NetProcess(seed)
			if err != nil {
				t.Fatalf("%s net: %v", name, err)
			}
			if p != nil {
				out[fmt.Sprintf("%s/net/seed-%d", name, seed)] = digest(p)
			}
		}
	}
	return out
}

// TestLibraryDigests pins every library scenario's sample paths to the
// digests in testdata/library_digests.txt, so a change to the spec language
// or to a generator that moves one sample of one scenario fails here.
func TestLibraryDigests(t *testing.T) {
	f, err := os.Open("testdata/library_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("bad digest line %q", sc.Text())
		}
		want[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := libraryDigests(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: digest %s, want %q", k, got[k], want[k])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d digests, testdata has %d", len(got), len(want))
	}
}
