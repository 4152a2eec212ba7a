package main

import "testing"

// run builds one run of workload "w" from per-metric samples, valued
// by their median.
func run(failedFrac float64, samples map[string][]float64) *wlResult {
	wr := &wlResult{FailedFrac: failedFrac, EndToEnd: map[string]metricResult{}}
	for _, d := range endToEnd {
		if xs, ok := samples[d.Name]; ok {
			wr.EndToEnd[d.Name] = newMetricResult(d, median(xs), xs)
		}
	}
	return wr
}

func side(runs ...*wlResult) map[string]*wlResult {
	return map[string]*wlResult{"w": mergeRuns(runs)}
}

func TestCompareLabels(t *testing.T) {
	spec := &benchSpec{EndToEnd: []boundDef{
		{Name: "vectors_per_s", Better: "higher", Bound: 0.10},
		{Name: "setup_s", Better: "lower", Bound: 0.10},
		{Name: "points", Better: "higher", Bound: 0.10},
		{Name: "peak_rss_mb", Better: "lower", Bound: 0.10},
	}}
	tight := func(m float64) []float64 { return []float64{0.99 * m, m, 1.01 * m} }
	base := side(run(0, map[string][]float64{
		"vectors_per_s": tight(1000),
		"setup_s":       tight(1),
		"points":        tight(100),
		"peak_rss_mb":   {50, 100, 150}, // spread wider than the bound
	}))
	for _, tc := range []struct {
		name      string
		cur       map[string]*wlResult
		want      map[string]string
		regressed bool
	}{
		{"same", side(run(0, map[string][]float64{
			"vectors_per_s": tight(1030), "setup_s": tight(0.95), "points": tight(100), "peak_rss_mb": {60, 110, 140},
		})), map[string]string{"vectors_per_s": labelUnchanged, "setup_s": labelUnchanged, "points": labelUnchanged, "peak_rss_mb": labelUnresolved, "failed_frac": labelUnchanged}, false},
		{"moves", side(run(0, map[string][]float64{
			"vectors_per_s": tight(800), "setup_s": tight(0.8), "points": tight(120), "peak_rss_mb": {10, 20, 30},
		})), map[string]string{"vectors_per_s": labelWorse, "setup_s": labelBetter, "points": labelBetter, "peak_rss_mb": labelBetter}, true},
		{"wide but dominated", side(run(0, map[string][]float64{
			"vectors_per_s": tight(1000), "setup_s": tight(1), "points": tight(100), "peak_rss_mb": {200, 300, 400},
		})), map[string]string{"peak_rss_mb": labelWorse}, true},
		{"more failures", side(run(0.25, map[string][]float64{
			"vectors_per_s": tight(1000), "setup_s": tight(1), "points": tight(100), "peak_rss_mb": {60, 110, 140},
		})), map[string]string{"failed_frac": labelWorse}, true},
		{"metric missing", side(run(0, map[string][]float64{
			"vectors_per_s": tight(1000), "setup_s": tight(1), "peak_rss_mb": {60, 110, 140},
		})), map[string]string{"points": labelMissing}, true},
	} {
		rows, regressed := compareResults(spec, base, tc.cur)
		got := map[string]string{}
		for _, r := range rows {
			got[r.Metric] = r.Label
		}
		for m, want := range tc.want {
			if got[m] != want {
				t.Errorf("%s: %s labelled %q, want %q", tc.name, m, got[m], want)
			}
		}
		if regressed != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v", tc.name, regressed, tc.regressed)
		}
	}

	rows, regressed := compareResults(spec, base, map[string]*wlResult{})
	if !regressed || rows[0].Label != labelMissing {
		t.Errorf("a workload missing from the new result is not a regression: %+v", rows[0])
	}
}

// With several runs per side, the runs' values are the samples: wide
// reps inside each run no longer make a clear shift unresolved.
func TestCompareRunSets(t *testing.T) {
	spec := &benchSpec{EndToEnd: []boundDef{{Name: "vectors_per_s", Better: "higher", Bound: 0.10}}}
	wide := func(m float64) *wlResult {
		return run(0, map[string][]float64{"vectors_per_s": {0.7 * m, m, 1.3 * m}})
	}
	base := side(wide(1000), wide(1010), wide(990), wide(1005))
	cur := side(wide(800), wide(790), wide(810), wide(805))
	if m := base["w"].EndToEnd["vectors_per_s"]; m.N != 4 || m.Value != 1002.5 {
		t.Fatalf("merged base = %+v, want the median of four run values", m)
	}
	rows, regressed := compareResults(spec, base, cur)
	if rows[0].Label != labelWorse || !regressed {
		t.Errorf("a 20%% drop across four runs labelled %q (regressed %v)", rows[0].Label, regressed)
	}
	rows, _ = compareResults(spec, side(wide(1000)), side(wide(800)))
	if rows[0].Label != labelUnresolved {
		t.Errorf("one wide run per side labelled %q, want unresolved", rows[0].Label)
	}
}
