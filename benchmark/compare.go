package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// boundDef is one end-to-end metric of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]boundDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return doc.EndToEnd, nil
}

// quartiles returns the three quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (its default, exclusive
// method). One sample is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// verdict judges set b of one metric against set a: unresolved when
// either set's spread (quartile distance over median) is wider than the
// bound, unless every run of b reads better than every run of a;
// regressed when b's median is worse than a's by more than the bound;
// pass otherwise.
func verdict(a, b []float64, def boundDef) string {
	qa, qb := quartiles(a), quartiles(b)
	spread := max((qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1])
	worse := (qb[1] - qa[1]) / qa[1]
	allBetter := slices.Max(b) < slices.Min(a)
	if def.Better == "higher" {
		worse = -worse
		allBetter = slices.Min(b) > slices.Max(a)
	}
	switch {
	case spread > def.Bound && !allBetter:
		return "unresolved"
	case worse > def.Bound:
		return "regressed"
	}
	return "pass"
}

// runCompare compares two sets of untraced results, one row per workload
// and end-to-end metric, and checks that every run of a workload at one
// seed gave the same digest. It reports false on any regression or digest
// mismatch.
func runCompare(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	bounds, err := readBounds(benchPath)
	if err != nil {
		return false, err
	}
	sets := [2]map[string][]*result{}
	digests := map[string]map[string]bool{} // workload/seed -> digests seen
	for i, path := range []string{aPath, bPath} {
		rs, err := readResults(path)
		if err != nil {
			return false, err
		}
		sets[i] = map[string][]*result{}
		for _, r := range rs {
			key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
			if digests[key] == nil {
				digests[key] = map[string]bool{}
			}
			digests[key][r.Digest] = true
			if !r.Traced {
				sets[i][r.Workload] = append(sets[i][r.Workload], r)
			}
		}
	}
	ok := true
	fmt.Fprintf(w, "%-20s %-18s %-10s %-44s %-44s %s\n", "workload", "metric", "bound", "a: median [q1, q3] n", "b: median [q1, q3] n", "verdict")
	for _, wl := range sortedKeys(sets[0]) {
		if len(sets[1][wl]) == 0 {
			fmt.Fprintf(w, "%-20s only in %s\n", wl, aPath)
			continue
		}
		for _, def := range bounds {
			var vals [2][]float64
			for i := range sets {
				for _, r := range sets[i][wl] {
					if m, found := r.EndToEnd[def.Name]; found {
						vals[i] = append(vals[i], m.Value)
					}
				}
			}
			if len(vals[0]) == 0 || len(vals[1]) == 0 {
				fmt.Fprintf(w, "%-20s %-18s missing from a set\n", wl, def.Name)
				ok = false
				continue
			}
			v := verdict(vals[0], vals[1], def)
			if v == "regressed" {
				ok = false
			}
			fmt.Fprintf(w, "%-20s %-18s %-10s %-44s %-44s %s\n", wl, def.Name,
				fmt.Sprintf("%g %s", def.Bound, def.Better), describe(vals[0], def.Unit), describe(vals[1], def.Unit), v)
		}
	}
	for _, key := range sortedKeys(digests) {
		if len(digests[key]) > 1 {
			fmt.Fprintf(w, "%s: digest mismatch: %v\n", key, sortedKeys(digests[key]))
			ok = false
		}
	}
	return ok, nil
}

func describe(xs []float64, unit string) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s n=%d", q[1], q[0], q[2], unit, len(xs))
}
