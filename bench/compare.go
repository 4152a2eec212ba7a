package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// boundDef is one end-to-end metric of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json that -compare reads.
type benchSpec struct {
	EndToEnd []boundDef `json:"end_to_end"`
}

// Comparison labels.
const (
	labelBetter     = "better"
	labelWorse      = "worse"
	labelUnchanged  = "unchanged"
	labelUnresolved = "unresolved"
	labelMissing    = "missing"
)

// compareRow is one (workload, metric) verdict.
type compareRow struct {
	Workload, Metric string
	Base, New        float64
	Change, Bound    float64 // worsening as a share of the base value
	Label            string
}

// compareMain reads the bounds from BENCHMARK.json in the working
// directory, the repository root that run.sh runs from.
func compareMain(basePaths, newPaths []string, stdout io.Writer) int {
	var spec benchSpec
	if err := readJSON("BENCHMARK.json", &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	base, err := loadSide(basePaths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cur, err := loadSide(newPaths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rows, regressed := compareResults(&spec, base, cur)
	fmt.Fprintf(stdout, "%-12s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "worse by", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-12s %-16s %14.6g %14.6g %8.1f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.Base, r.New, 100*r.Change, 100*r.Bound, r.Label)
	}
	if regressed {
		fmt.Fprintln(stdout, "regression")
		return 1
	}
	return 0
}

// loadSide reads one side's result files and merges the runs of each
// workload.
func loadSide(paths []string) (map[string]*wlResult, error) {
	runs := map[string][]*wlResult{}
	for _, p := range paths {
		var rf resultFile
		if err := readJSON(p, &rf); err != nil {
			return nil, err
		}
		if rf.Schema != resultSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", p, rf.Schema, resultSchema)
		}
		for name, wr := range rf.Workloads {
			runs[name] = append(runs[name], wr)
		}
	}
	out := map[string]*wlResult{}
	for name, rs := range runs {
		out[name] = mergeRuns(rs)
	}
	return out, nil
}

// mergeRuns folds several runs of one workload into one: each
// end-to-end metric's samples become the runs' values and its value
// their median, so its spread is the run-to-run spread. A single run
// stands for itself, with the rep-to-rep spread.
func mergeRuns(rs []*wlResult) *wlResult {
	if len(rs) == 1 {
		return rs[0]
	}
	m := &wlResult{EndToEnd: map[string]metricResult{}}
	for _, r := range rs {
		m.Reps += r.Reps
		m.Attempted += r.Attempted
		m.Failed += r.Failed
	}
	m.FailedFrac = ratio(float64(m.Failed), float64(m.Attempted))
	for name, first := range rs[0].EndToEnd {
		var xs []float64
		for _, r := range rs {
			if mr, ok := r.EndToEnd[name]; ok {
				xs = append(xs, mr.Value)
			}
		}
		m.EndToEnd[name] = newMetricResult(metricDef{Name: name, Unit: first.Unit, Better: first.Better}, median(xs), xs)
	}
	return m
}

// compareResults labels every (workload, end-to-end metric) of base
// against cur by the metric's bound, and failed_frac by any increase.
// It reports whether anything regressed.
func compareResults(spec *benchSpec, base, cur map[string]*wlResult) ([]compareRow, bool) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []compareRow
	regressed := false
	for _, wname := range names {
		bw, cw := base[wname], cur[wname]
		for _, d := range spec.EndToEnd {
			row := compareRow{Workload: wname, Metric: d.Name, Bound: d.Bound, Label: labelMissing}
			bm, ok1 := bw.EndToEnd[d.Name]
			var cm metricResult
			ok2 := false
			if cw != nil {
				cm, ok2 = cw.EndToEnd[d.Name]
			}
			if ok1 && ok2 {
				row.Base, row.New = bm.Value, cm.Value
				row.Change, row.Label = verdict(d, bm, cm)
			}
			if row.Label == labelWorse || row.Label == labelMissing {
				regressed = true
			}
			rows = append(rows, row)
		}
		row := compareRow{Workload: wname, Metric: "failed_frac", Base: bw.FailedFrac, Label: labelMissing}
		if cw != nil {
			row.New, row.Change, row.Label = cw.FailedFrac, cw.FailedFrac-bw.FailedFrac, labelUnchanged
			switch {
			case cw.FailedFrac > bw.FailedFrac:
				row.Label = labelWorse
			case cw.FailedFrac < bw.FailedFrac:
				row.Label = labelBetter
			}
		}
		if row.Label == labelWorse || row.Label == labelMissing {
			regressed = true
		}
		rows = append(rows, row)
	}
	return rows, regressed
}

// verdict compares values by the bound. When either side's quartile
// spread is wider than the bound the values cannot resolve a change
// of that size, so the row is unresolved unless every sample of one
// side beats every sample of the other.
func verdict(d boundDef, base, cur metricResult) (change float64, label string) {
	sign := 1.0 // positive change = worse
	if d.Better == "higher" {
		sign = -1
	}
	change = sign * ratio(cur.Value-base.Value, base.Value)
	if base.spread() > d.Bound || cur.spread() > d.Bound {
		switch {
		case dominates(cur.Samples, base.Samples, sign):
			return change, labelBetter
		case dominates(base.Samples, cur.Samples, sign) && change > d.Bound:
			return change, labelWorse
		}
		return change, labelUnresolved
	}
	switch {
	case change > d.Bound:
		return change, labelWorse
	case -change > d.Bound:
		return change, labelBetter
	}
	return change, labelUnchanged
}

// dominates reports whether every sample of a is better than every
// sample of b; sign is +1 when lower is better.
func dominates(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if sign*(x-y) >= 0 {
				return false
			}
		}
	}
	return true
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
