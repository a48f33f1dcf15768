package main

import (
	"fmt"
	"strconv"
	"strings"
)

// metricsText is a parsed GET /metrics exposition: every sample line keyed
// by its full series name (`family{label="v",...}`).
type metricsText map[string]float64

// parseMetricsText reads the Prometheus text format strictly enough to
// fail on anything a scraper would choke on.
func parseMetricsText(text string) (metricsText, error) {
	m := metricsText{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 2 || (f[1] != "HELP" && f[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: unknown comment %q", ln+1, line)
			}
			continue
		}
		cut := strings.LastIndexByte(line, '}')
		if cut < 0 {
			cut = strings.IndexAny(line, " \t") - 1
		}
		if cut < 0 || cut+1 >= len(line) {
			return nil, fmt.Errorf("line %d: sample without value: %q", ln+1, line)
		}
		series, val := line[:cut+1], strings.Fields(line[cut+1:])
		if len(val) == 0 {
			return nil, fmt.Errorf("line %d: sample without value: %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(val[0], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q", ln+1, val[0])
		}
		if strings.Count(series, "{") != strings.Count(series, "}") {
			return nil, fmt.Errorf("line %d: unbalanced braces: %q", ln+1, line)
		}
		m[series] = v
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("no samples")
	}
	return m, nil
}

// sum adds every series of a family whose label set contains all of the
// given `label="value"` fragments.
func (m metricsText) sum(family string, labels ...string) float64 {
	total := 0.0
	for series, v := range m {
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(series, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// histMeanUS is a histogram family's mean in microseconds over the matching
// series (the families record seconds).
func (m metricsText) histMeanUS(family string, labels ...string) float64 {
	n := m.sum(family+"_count", labels...)
	if n == 0 {
		return 0
	}
	return m.sum(family+"_sum", labels...) / n * 1e6
}
