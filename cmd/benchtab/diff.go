package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchtab -diff is the repo's perf-regression gate: it compares any
// two bench records of the same schema (BENCH_obs.json,
// BENCH_slice.json, BENCH_flight.json, BENCH_prof.json, ...) metric by
// metric, with each schema declaring which of its fields are
// performance metrics and which direction is better. A metric that
// moves the wrong way past -warn-tol prints a warning; past -fail-tol
// the diff exits nonzero — warn-then-fail, so CI can keep a soft gate
// while the tolerance is tuned.

// metricDef declares one gated metric: a dotted JSON path ("*" matches
// any array index) and the direction of goodness.
type metricDef struct {
	path           string
	higherIsBetter bool
}

// diffMetrics is the per-schema metric registry. Fields not listed
// here (counts, byte sizes, notes, wall-clock raw values already
// summarized by a ratio) are informational, not gated.
var diffMetrics = map[string][]metricDef{
	"symbfuzz-bench-obs/v1": {
		{"vectors_per_sec", true},
		{"cycles_per_sec", true},
		{"solves_per_sec", true},
		{"mean_solve_ns", false},
		{"mean_blast_ns", false},
		{"mean_interval_ns", false},
		{"mean_rollback_ns", false},
	},
	"symbfuzz-bench-slice/v1": {
		{"rows.*.blast_reduction", true},
	},
	"symbfuzz-bench-flight/v1": {
		{"overhead", false},
	},
	"symbfuzz-bench-prof/v1": {
		{"overhead", false},
	},
	"symbfuzz-bench-par/v1": {
		{"rows.*.wall_speedup", true},
		{"rows.*.vector_efficiency", true},
	},
	"symbfuzz-bench-dist/v1": {
		{"rows.*.wire_overhead", false},
	},
	"symbfuzz-bench-fleet/v1": {
		{"rows.*.batch_bytes", false},
		{"fleet_vectors_per_sec", true},
	},
	"symbfuzz-bench-watch/v1": {
		{"overhead", false},
	},
	"symbfuzz-bench-sim/v1": {
		{"rows.*.interp_vectors_per_sec", true},
		{"rows.*.compiled_vectors_per_sec", true},
		{"rows.*.speedup", true},
		{"best_speedup", true},
	},
}

// runDiff compares baseline -> candidate. Returns true when at least
// one metric regressed past failTol. A registered metric missing from
// either record is an error: a renamed or dropped field must not turn
// the gate into a silent pass.
func runDiff(basePath, newPath string, warnTol, failTol float64, w io.Writer) (bool, error) {
	base, baseSchema, err := readRecord(basePath)
	if err != nil {
		return false, err
	}
	cand, candSchema, err := readRecord(newPath)
	if err != nil {
		return false, err
	}
	if baseSchema != candSchema {
		return false, fmt.Errorf("schema mismatch: %s is %q, %s is %q", basePath, baseSchema, newPath, candSchema)
	}
	metrics, ok := diffMetrics[baseSchema]
	if !ok {
		return false, fmt.Errorf("no metric registry for schema %q", baseSchema)
	}
	if failTol < warnTol {
		return false, fmt.Errorf("-fail-tol (%.2f) must be >= -warn-tol (%.2f)", failTol, warnTol)
	}

	fmt.Fprintf(w, "perf diff (%s): %s -> %s  [warn > %.0f%%, fail > %.0f%%]\n",
		baseSchema, basePath, newPath, warnTol*100, failTol*100)
	fmt.Fprintf(w, "  %-34s %14s %14s %9s  %s\n", "metric", "baseline", "candidate", "change", "verdict")

	failed := false
	for _, m := range metrics {
		paths := matchPaths(base, m.path)
		if len(paths) == 0 {
			return false, fmt.Errorf("%s: no %s metric %q", basePath, baseSchema, m.path)
		}
		for _, p := range paths {
			ov, ook := lookupNumber(base, p)
			nv, nok := lookupNumber(cand, p)
			if !ook || !nok {
				return false, fmt.Errorf("metric %s is not a number in both %s and %s", p, basePath, newPath)
			}
			change, worse := relChange(ov, nv, m.higherIsBetter)
			verdict := "ok"
			switch {
			case worse > failTol:
				verdict = "FAIL"
				failed = true
			case worse > warnTol:
				verdict = "warn"
			}
			fmt.Fprintf(w, "  %-34s %14.4g %14.4g %+8.1f%%  %s\n", p, ov, nv, change*100, verdict)
		}
	}
	if failed {
		fmt.Fprintf(w, "perf diff: REGRESSION beyond %.0f%% tolerance\n", failTol*100)
	}
	return failed, nil
}

// relChange returns the signed relative change and how much of it is
// in the "worse" direction (0 when the metric moved the right way).
func relChange(oldV, newV float64, higherIsBetter bool) (change, worse float64) {
	if oldV == 0 {
		return 0, 0 // nothing to normalize against
	}
	change = (newV - oldV) / oldV
	if oldV < 0 {
		change = -change // preserve "higher is better" semantics
	}
	if higherIsBetter {
		worse = -change
	} else {
		worse = change
	}
	if worse < 0 {
		worse = 0
	}
	return change, worse
}

func readRecord(path string) (map[string]any, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var rec map[string]any
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	schema, _ := rec["schema"].(string)
	if schema == "" {
		return nil, "", fmt.Errorf("%s: no schema field", path)
	}
	return rec, schema, nil
}

// matchPaths expands a metric path against the baseline document,
// resolving each "*" segment to the array indices present. Results are
// sorted so the diff output order is stable.
func matchPaths(doc map[string]any, pattern string) []string {
	segs := strings.Split(pattern, ".")
	paths := expand(doc, segs, "")
	sort.Strings(paths)
	return paths
}

func expand(node any, segs []string, prefix string) []string {
	if len(segs) == 0 {
		return []string{strings.TrimPrefix(prefix, ".")}
	}
	seg, rest := segs[0], segs[1:]
	switch n := node.(type) {
	case map[string]any:
		if len(rest) == 0 {
			// A missing leaf still yields its path, so runDiff reports it
			// instead of silently comparing fewer metrics.
			return []string{strings.TrimPrefix(prefix+"."+seg, ".")}
		}
		child, ok := n[seg]
		if !ok {
			return nil
		}
		return expand(child, rest, prefix+"."+seg)
	case []any:
		if seg != "*" {
			return nil
		}
		var out []string
		for i, child := range n {
			out = append(out, expand(child, rest, fmt.Sprintf("%s.%d", prefix, i))...)
		}
		return out
	}
	return nil
}

// lookupNumber resolves a concrete dotted path to a float64.
func lookupNumber(doc map[string]any, path string) (float64, bool) {
	var node any = doc
	for _, seg := range strings.Split(path, ".") {
		switch n := node.(type) {
		case map[string]any:
			node = n[seg]
		case []any:
			idx := 0
			if _, err := fmt.Sscanf(seg, "%d", &idx); err != nil || idx < 0 || idx >= len(n) {
				return 0, false
			}
			node = n[idx]
		default:
			return 0, false
		}
	}
	v, ok := node.(float64)
	return v, ok
}
