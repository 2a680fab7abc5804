package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so that a
// spread computed here is the spread the benchmark's driver computes. A
// single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j, delta := i*(len(s)+1)/4, i*(len(s)+1)%4
		j = min(max(j, 1), len(s)-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// verdict of one workload × metric pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare.
type comparison struct {
	base, next             float64 // medians
	baseQ1, baseQ3         float64
	nextQ1, nextQ3         float64
	worse, allowed, spread float64 // in the metric's unit
	verdict                string
}

// judge compares two sets of runs of one metric. The pair regressed when
// the new median is worse than the base median by more than the bound
// (or the absolute floor, where that is larger); it is unresolved, not
// unchanged, when it did not regress but either set's own interquartile
// spread is wider than that allowance.
func judge(d metricDef, base, next []float64) comparison {
	c := comparison{base: median(base), next: median(next)}
	c.baseQ1, c.baseQ3 = quartiles(base)
	c.nextQ1, c.nextQ3 = quartiles(next)
	c.worse = c.next - c.base
	if d.Better == "higher" {
		c.worse = -c.worse
	}
	c.allowed = math.Max(d.Bound*math.Abs(c.base), d.Floor)
	c.spread = math.Max(c.baseQ3-c.baseQ1, c.nextQ3-c.nextQ1)
	switch {
	case c.worse > c.allowed:
		c.verdict = verdictRegressed
	case c.spread > c.allowed:
		c.verdict = verdictUnresolved
	default:
		c.verdict = verdictOK
	}
	return c
}

// endToEndValues collects, per workload and metric, the values of a
// file's end-to-end runs.
func endToEndValues(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	values := make(map[string]map[string][]float64)
	for _, r := range file.Runs {
		if r.Trace != 0 {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
	}
	return values, nil
}

// compareFiles prints one row per workload × end-to-end metric present in
// both files and returns an error when any pair regressed.
func compareFiles(w io.Writer, basePath, nextPath string) error {
	base, err := endToEndValues(basePath)
	if err != nil {
		return err
	}
	next, err := endToEndValues(nextPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-11s %-20s %-5s %12s %25s %12s %25s %9s %7s  %s\n",
		"workload", "metric", "unit", "base median", "[q1, q3] (n)", "new median", "[q1, q3] (n)", "delta", "bound", "verdict")
	rows, regressed := 0, 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			b, n := base[wl.name][d.Name], next[wl.name][d.Name]
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			c := judge(d, b, n)
			rows++
			if c.verdict == verdictRegressed {
				regressed++
			}
			// delta is (new − base) / base: its base is the base median.
			fmt.Fprintf(w, "%-11s %-20s %-5s %12.4f %25s %12.4f %25s %+8.2f%% %6.0f%%  %s\n",
				wl.name, d.Name, d.Unit,
				c.base, fmt.Sprintf("[%.6g, %.6g] (%d)", c.baseQ1, c.baseQ3, len(b)),
				c.next, fmt.Sprintf("[%.6g, %.6g] (%d)", c.nextQ1, c.nextQ3, len(n)),
				100*ratio(c.next-c.base, c.base), 100*d.Bound, c.verdict)
		}
	}
	if rows == 0 {
		return fmt.Errorf("no workload has end-to-end runs in both %s and %s", basePath, nextPath)
	}
	if regressed > 0 {
		return fmt.Errorf("%d of %d pairs regressed", regressed, rows)
	}
	return nil
}
