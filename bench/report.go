package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
)

// minLayerSumFrac is the least share of the traced loop's wall time
// the layer spans must account for.
const minLayerSumFrac = 0.95

// summarize checks a workload's runs and turns them into metrics. A
// run fails on an error, an interrupted report, a check report that
// differs from rep 0's, a rebuilt loop that differs from the engine,
// or layer spans that leave more than 5% of the loop unaccounted.
func (p *plan) summarize() (*wlResult, error) {
	wr := &wlResult{Reps: p.n, Attempted: len(p.jobs)}
	fail := func(k int, why string) {
		wr.Failed++
		wr.Failures = append(wr.Failures, fmt.Sprintf("job %d (%s): %s", k, p.jobs[k].Mode, why))
		p.res[k] = nil
	}
	for k, r := range p.res {
		switch {
		case p.errs[k] != nil:
			fail(k, p.errs[k].Error())
		case interrupted(r):
			fail(k, "campaign interrupted")
		}
	}
	rep0 := p.res[0]
	switch {
	case p.res[p.check] == nil:
	case rep0 == nil:
		fail(p.check, "rep 0 failed, nothing to check against")
	case !sameReports(reports(rep0), reports(p.res[p.check])):
		if p.w.Ranks > 0 {
			fail(p.check, "par.Run merged report differs from the fleet's")
		} else {
			fail(p.check, "rerun of rep 0's seed differs from rep 0")
		}
	}

	var e2e, layers []map[string]float64
	var fuzzPV []float64
	for _, r := range p.res[:p.n] {
		if r == nil {
			continue
		}
		e2e = append(e2e, repEndToEnd(p.w, r))
		layers = append(layers, repLayers(p.w, r))
		fuzzPV = append(fuzzPV, fuzzNSPerVector(r))
	}
	if len(e2e) == 0 {
		return nil, fmt.Errorf("every rep failed: %v", wr.Failures)
	}
	wr.EndToEnd = results(endToEnd, e2e)
	if p.traced >= 0 {
		if r := p.res[p.traced]; r != nil {
			traced := tracedLayers(p.w, r, median(fuzzPV))
			layers = append(layers, traced)
			if r.Fleet != nil {
				wr.Wire = r.Fleet.Wire
			}
			if f := traced["trace.layer_sum_frac"]; f < minLayerSumFrac {
				fail(p.traced, fmt.Sprintf("layer spans cover %.3f of the loop, want >= %.2f", f, minLayerSumFrac))
			}
			// The rebuilt loop is one engine; fleet ranks run with
			// derived seeds, shards and a shared plan cache.
			if p.w.Ranks == 0 {
				if why := fidelity(rep0, r); why != "" {
					fail(p.traced, why)
				}
			}
		}
		wr.PerLayer = results(perLayer, layers)
	}
	wr.FailedFrac = float64(wr.Failed) / float64(wr.Attempted)
	return wr, nil
}

func interrupted(r *childResult) bool {
	for _, dr := range r.Designs {
		if dr.Report == nil || dr.Report.Interrupted {
			return true
		}
	}
	return false
}

func reports(r *childResult) []*core.Report {
	out := make([]*core.Report, len(r.Designs))
	for i, dr := range r.Designs {
		out[i] = dr.Report
	}
	return out
}

// fidelity compares the rebuilt loop with rep 0's engine on every
// design where guidance never fired; there the engine ran exactly the
// random-stimulus loop.
func fidelity(rep0, traced *childResult) string {
	if rep0 == nil {
		return ""
	}
	for i, lo := range traced.Layers.Loops {
		if i >= len(rep0.Designs) {
			break
		}
		rep := rep0.Designs[i].Report
		if rep == nil || rep.SymbolicInvocations > 0 {
			continue
		}
		if lo.Points != rep.FinalPoints || lo.EdgesCovered != rep.EdgesCovered || !slices.Equal(lo.Bugs, rep.Bugs) {
			return fmt.Sprintf("%s: rebuilt loop (points %d, edges %d, bugs %d) differs from the engine (points %d, edges %d, bugs %d)",
				lo.Name, lo.Points, lo.EdgesCovered, len(lo.Bugs), rep.FinalPoints, rep.EdgesCovered, len(rep.Bugs))
		}
	}
	return ""
}

func printWorkload(w io.Writer, name string, wr *wlResult) {
	fmt.Fprintf(w, "== %s: %d reps; %d runs attempted, %d failed\n", name, wr.Reps, wr.Attempted, wr.Failed)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	fmt.Fprintf(w, "  %-30s %-13s %14s %14s %14s %3s\n", "metric", "unit", "value", "q1", "q3", "n")
	row := func(name, unit string, m metricResult) {
		fmt.Fprintf(w, "  %-30s %-13s %14.6g %14.6g %14.6g %3d\n", name, unit, m.Value, m.Q1, m.Q3, m.N)
	}
	for _, d := range endToEnd {
		row(d.Name, d.Unit, wr.EndToEnd[d.Name])
	}
	f := wr.FailedFrac
	row("failed_frac", "fraction", metricResult{Value: f, Q1: f, Q3: f, N: wr.Attempted})
	if wr.PerLayer == nil {
		return
	}
	for _, d := range perLayer {
		row(d.Name, d.Unit, wr.PerLayer[d.Name])
	}
	if x := wr.Wire; x != nil {
		fmt.Fprintf(w, "  wire: %d RPCs, p50 %.0f us, p%g %.0f us\n", x.RPCs, x.P50US, x.TailPct, x.TailUS)
	}
}

// lineMetric is one metric of the final result line.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders a workload's outcome as the one-line JSON object
// a single-workload run ends with: the end-to-end metrics, or with
// traced set the per-layer metrics.
func resultLine(wr *wlResult, traced bool) ([]byte, error) {
	defs, ms := endToEnd, wr.EndToEnd
	if traced {
		defs, ms = perLayer, wr.PerLayer
	}
	out := map[string]lineMetric{}
	for _, d := range defs {
		out[d.Name] = lineMetric{Value: ms[d.Name].Value, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, out})
}
