package main

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/props"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestMedianQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// Expected values from Python: statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(4), 1.25, 3.75},
		{seq(10), 2.75, 8.25},
		{[]float64{5, 1, 4}, 1, 5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := newMetricResult(metricDef{}, median(seq(4)), seq(4)); m.spread() != (3.75-1.25)/2.5 {
		t.Errorf("spread = %v", m.spread())
	}
}

// vectors_to_bug is the geometric mean over every (bug, rep) first
// detection; a bug a rep misses counts as the vector budget.
func TestVectorsToBug(t *testing.T) {
	w := workload{Vectors: 1000}
	rep := func(bugs ...core.BugRecord) map[string]float64 {
		dr := designRun{Report: &core.Report{Bugs: bugs}, Planted: []string{"A", "B"}}
		return repEndToEnd(w, &childResult{Designs: []designRun{dr}})
	}
	bug := func(prop string, vectors uint64) core.BugRecord {
		return core.BugRecord{Violation: props.Violation{Property: prop}, Vectors: vectors}
	}
	got := results(endToEnd, []map[string]float64{
		// A fleet's merged report lists each rank's detection; the
		// earliest counts.
		rep(bug("A", 100), bug("B", 300), bug("A", 200)),
		rep(bug("A", 300)), // B missed
	})
	if v, want := got["vectors_to_bug"].Value, math.Pow(100*300*300*1000, 0.25); math.Abs(v-want) > 1e-9 {
		t.Errorf("vectors_to_bug = %v, want %v", v, want)
	}
	if v := got["bugs_found"].Value; v != 1.5 {
		t.Errorf("bugs_found = %v, want the mean of 2 and 1", v)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		pct     float64
		atValue float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 90, 900},
		{100, 90, 90},
		{99, 50, 50},
		{20, 50, 10},
		{5, 50, 3}, // too few for any tail: the median rank
	} {
		v, pct := tail(seq(tc.n))
		if pct != tc.pct || v != tc.atValue {
			t.Errorf("tail(n=%d) = p%v %v, want p%v %v", tc.n, pct, v, tc.pct, tc.atValue)
		}
	}
}

func sampleReport() *core.Report {
	return &core.Report{
		Bugs: []core.BugRecord{
			{Violation: props.Violation{Property: "B01", CWE: "CWE-1", Cycle: 7}, Vectors: 100},
			{Violation: props.Violation{Property: "B02", CWE: "CWE-2", Cycle: 90}, Vectors: 400},
		},
		FinalPoints: 3000, Vectors: 40000, EdgesCovered: 1860, EdgesTotal: 1868,
		SolveCacheHits: 3, SolveCacheMisses: 2,
		Timings: core.Timings{TotalNS: 10, FuzzNS: 8, SymbolicNS: 2, RollbackNS: 1, Solve: core.SolveTotals{Dispatches: 5, BlastNS: 4, CDCLNS: 1}},
	}
}

func TestCanonicalReportEquality(t *testing.T) {
	a := sampleReport()

	b := sampleReport()
	b.Timings.TotalNS, b.Timings.FuzzNS, b.Timings.SymbolicNS = 99, 77, 22
	b.Timings.RollbackNS, b.Timings.VCDNS = 5, 3
	b.Timings.Solve.BlastNS, b.Timings.Solve.CDCLNS = 40, 10
	b.SolveCacheHits, b.SolveCacheMisses = 1, 4 // same total, other split
	if !sameReports([]*core.Report{a}, []*core.Report{b}) {
		t.Error("reports differing only in wall clock and cache split compare unequal")
	}

	for name, mutate := range map[string]func(*core.Report){
		"Bugs[].Vectors":   func(r *core.Report) { r.Bugs[1].Vectors = 500 },
		"cache total":      func(r *core.Report) { r.SolveCacheMisses = 3 },
		"FinalPoints":      func(r *core.Report) { r.FinalPoints++ },
		"Solve.Dispatches": func(r *core.Report) { r.Timings.Solve.Dispatches++ },
	} {
		c := sampleReport()
		mutate(c)
		if sameReports([]*core.Report{a}, []*core.Report{c}) {
			t.Errorf("a changed %s is not caught", name)
		}
	}
	if sameReports([]*core.Report{a}, []*core.Report{a, a}) {
		t.Error("report lists of different length compare equal")
	}
}
