package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareMain implements `bench compare A.jsonl B.jsonl`: for every
// (workload, metric) the two files share, A's and B's medians over their
// runs, the change, the bound, and a verdict.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	root := fs.String("root", "", "repository checkout holding BENCHMARK.json (default: the directory holding bench/)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl   (runs.jsonl files written by `bench run -out DIR`)")
		return 2
	}
	a, err := readRuns(fs.Arg(0))
	var b []runRecord
	if err == nil {
		b, err = readRuns(fs.Arg(1))
	}
	var bf benchmarkFile
	if err == nil {
		bf, err = readBenchmarkFile(*root)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	printComparison(os.Stdout, a, b, bf)
	return 0
}

func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, ln, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return out, nil
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	root, err := findRoot(root)
	if err != nil {
		return bf, err
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	err = json.Unmarshal(b, &bf)
	return bf, err
}

// series is one (workload, metric)'s values over a file's runs.
type series struct {
	values []float64
	unit   string
	// atReference is set for a figure an end-to-end run already scaled to
	// reference speed (speed.go): it needs no second normalisation.
	atReference bool
}

func collect(runs []runRecord) (map[string]*series, float64) {
	out := map[string]*series{}
	var calib []float64
	for _, r := range runs {
		if r.CalibMS > 0 {
			calib = append(calib, r.CalibMS)
		}
		for name, m := range r.Metrics {
			key := r.Workload + "\t" + name
			if out[key] == nil {
				out[key] = &series{unit: m.Unit}
			}
			out[key].values = append(out[key].values, m.Value)
			if r.Trace == 0 && atReferenceSpeed[name] {
				out[key].atReference = true
			}
		}
	}
	return out, median(calib)
}

// timeUnits are the units machine speed scales: a figure in one of them is
// also shown divided (or, for rates, multiplied) by the machines'
// machine.calib_ms ratio.
var timeUnits = map[string]float64{"s": 1, "ms": 1, "us": 1, "ns": 1, "1/s": -1}

func printComparison(out *os.File, a, b []runRecord, bf benchmarkFile) {
	sa, calibA := collect(a)
	sb, calibB := collect(b)
	better, bound := map[string]string{}, map[string]float64{}
	for _, m := range bf.EndToEnd {
		better[m.Name], bound[m.Name] = m.Better, m.Bound
	}
	for _, m := range bf.PerLayer {
		better[m.Name] = m.Better
	}
	speed := 1.0 // how much slower machine B is than machine A
	if calibA > 0 && calibB > 0 {
		speed = calibB / calibA
	}
	fmt.Fprintf(out, "A: %d runs, machine.calib_ms %.3f    B: %d runs, machine.calib_ms %.3f    B/A %.3f\n", len(a), calibA, len(b), calibB, speed)
	fmt.Fprintf(out, "%-16s %-30s %12s %12s %8s %8s %7s %9s  %s\n", "workload", "metric", "A median", "B median", "delta", "spread", "bound", "B norm.", "verdict")
	keys := make([]string, 0, len(sa))
	for k := range sa {
		if sb[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		wl, name, _ := strings.Cut(k, "\t")
		va, vb := sa[k].values, sb[k].values
		ma, mb := median(va), median(vb)
		delta, spread := 0.0, 0.0
		if ma != 0 {
			delta = (mb - ma) / math.Abs(ma)
			spread = max(iqr(va), iqr(vb)) / math.Abs(ma)
		}
		norm := mb
		if exp, ok := timeUnits[sa[k].unit]; ok && !sa[k].atReference {
			if exp > 0 {
				norm = mb / speed
			} else {
				norm = mb * speed
			}
		}
		fmt.Fprintf(out, "%-16s %-30s %12.6g %12.6g %+7.1f%% %7.1f%% %6.0f%% %9.4g  %s\n",
			wl, name, ma, mb, 100*delta, 100*spread, 100*bound[name], norm, verdict(va, vb, delta, spread, better[name], bound[name]))
	}
}

// verdict applies the rule the guides fix: worse or better only beyond the
// metric's bound; a spread wider than the bound leaves the metric
// unresolved unless every run of one side beats every run of the other.
func verdict(a, b []float64, delta, spread float64, better string, bound float64) string {
	if better == "" {
		return "-" // no direction on record (an unknown or renamed metric)
	}
	if better == "lower" {
		delta = -delta
	}
	// delta > 0 now means B is better.
	if bound == 0 {
		bound = 0.05 // per-layer metrics carry no bound; report at 5%
	}
	if spread > bound {
		switch {
		case separated(a, b, better == "higher"):
			return "better (every run)"
		case separated(b, a, better == "higher"):
			return "worse (every run)"
		}
		return "unresolved"
	}
	switch {
	case delta > bound:
		return "better"
	case delta < -bound:
		return "worse"
	}
	return "within-bound"
}

// separated reports whether every value of hi beats every value of lo.
func separated(lo, hi []float64, higherBetter bool) bool {
	if len(lo) == 0 || len(hi) == 0 {
		return false
	}
	sl, sh := append([]float64(nil), lo...), append([]float64(nil), hi...)
	sort.Float64s(sl)
	sort.Float64s(sh)
	if higherBetter {
		return sh[0] > sl[len(sl)-1]
	}
	return sh[len(sh)-1] < sl[0]
}
