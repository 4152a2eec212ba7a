package main

import (
	"math"

	"repro/internal/core"
)

// How a metric's per-rep samples become its value.
type aggKind int

const (
	// byMedian suits host timings: a noisy neighbour's stall moves one
	// rep, not the median.
	byMedian aggKind = iota
	// byMean suits campaign outcomes, which are expectations over the
	// reps' campaign seeds: a median of near-integer counts jumps by a
	// whole bug or edge between runs, and a mean of additive counters
	// keeps their parts summing to their total.
	byMean
	// byGeomean suits bug detection counts. Each rep's sample is
	// already its geometric mean over planted bugs, so the value is the
	// geometric mean over every (bug, rep) detection. Detection counts
	// are heavy-tailed across seeds (one bug takes 700 vectors on one
	// seed and 12000 on another); the geometric mean weighs a relative
	// change of any bug alike instead of letting the slowest bug and
	// the unluckiest seed set the value.
	byGeomean
)

// metricDef names a metric, its unit and which direction is better.
// BENCHMARK.json lists the same names, units and directions.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	agg    aggKind
}

// endToEnd are the metrics a campaign user sees, measured on the
// untraced reps.
var endToEnd = []metricDef{
	{"vectors_per_s", "vectors/s", "higher", byMedian},
	{"setup_s", "s", "lower", byMedian},
	{"vectors_to_bug", "vectors", "lower", byGeomean},
	{"bugs_found", "count", "higher", byMean},
	{"edges_covered", "fraction", "higher", byMean},
	{"points", "count", "higher", byMean},
	{"peak_rss_mb", "MiB", "lower", byMedian},
}

// perLayer are the single-layer metrics. README.md maps each to the
// end-to-end metric and workload it should move. Every one is defined
// on every workload; a layer a workload does not run reads 0, so
// those metrics are counts or fractions, never times.
var perLayer = []metricDef{
	// Set-up, from the traced run's direct calls.
	{"elab.elaborate_s", "s", "lower", byMean},
	{"uvm.env_s", "s", "lower", byMean},
	{"cfg.transition_s", "s", "lower", byMean},
	{"cfg.partition_s", "s", "lower", byMean},
	{"lint.reach_s", "s", "lower", byMean},
	{"cfg.nodes", "count", "higher", byMean},
	{"cfg.edges", "count", "higher", byMean},
	// Random-stimulus path, from the traced run's rebuilt loop.
	{"uvm.next_item_ns", "ns/vector", "lower", byMean},
	{"simc.step_ns", "ns/vector", "lower", byMean},
	{"cov.sample_ns", "ns/cycle", "lower", byMean},
	{"cov.branch_events_per_cycle", "events/cycle", "lower", byMean},
	{"props.check_ns", "ns/cycle", "lower", byMean},
	{"uvm.monitor_ns", "ns/cycle", "lower", byMean},
	{"core.snapshot_ns", "ns/snapshot", "lower", byMean},
	{"core.loop_ns", "ns/vector", "lower", byMean},
	{"trace.layer_sum_frac", "fraction", "higher", byMean},
	{"trace.overhead", "ratio", "lower", byMean},
	// Guidance, from the untraced reps' own reports. Its phases are
	// shares of the engine's Run wall time: soc_default may run a whole
	// campaign without guidance.
	{"core.fuzz_s", "s", "lower", byMean},
	{"core.guide_frac", "fraction", "lower", byMean},
	{"core.guide_self_frac", "fraction", "lower", byMean},
	{"core.rollback_frac", "fraction", "lower", byMean},
	{"core.rollbacks", "count", "lower", byMean},
	{"core.symbolic_invocations", "count", "higher", byMean},
	{"core.checkpoint_mb", "MiB", "lower", byMean},
	{"smt.dispatches", "count", "lower", byMean},
	{"smt.sat_frac", "fraction", "higher", byMean},
	{"smt.blast_frac", "fraction", "lower", byMean},
	{"smt.cdcl_frac", "fraction", "lower", byMean},
	{"smt.clauses", "count", "lower", byMean},
	{"analysis.sliced_vars", "count", "higher", byMean},
	{"analysis.infeasible_targets", "count", "higher", byMean},
	{"cov.events_dropped", "count", "lower", byMean},
	// Go runtime, around each untraced Run.
	{"go.alloc_bytes_per_vector", "B/vector", "lower", byMean},
	{"go.gc_cpu_s_per_s", "s/s", "lower", byMean},
	{"go.gc_cycles", "count", "lower", byMean},
	// Fleet: wire from the traced run, coordinator from the reps.
	{"dist.rpcs", "count", "lower", byMean},
	{"dist.rpc_wait_frac", "fraction", "lower", byMean},
	{"dist.rpc_non2xx", "count", "lower", byMean},
	{"dist.bytes_sent", "B", "lower", byMean},
	{"fleet.batches", "count", "lower", byMean},
	{"fleet.rejected_429", "count", "lower", byMean},
	{"fleet.journal_bytes", "B", "lower", byMean},
	{"fleet.engine_busy_frac", "fraction", "higher", byMean},
	{"par.cache_hit_frac", "fraction", "higher", byMean},
}

// metricResult is one metric of one workload in a result file: its
// value, and the quartiles and count of the per-rep samples behind it.
type metricResult struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func newMetricResult(d metricDef, value float64, xs []float64) metricResult {
	q1, q3 := quartiles(xs)
	return metricResult{Unit: d.Unit, Better: d.Better, Value: value, Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

// spread is the interquartile distance of the samples as a share of
// the value.
func (m metricResult) spread() float64 {
	if m.Value == 0 {
		return 0
	}
	return math.Abs(m.Q3-m.Q1) / math.Abs(m.Value)
}

// results aggregates per-rep samples into one result per metric of
// defs. Samples missing from every rep read 0: the workload does not
// run that layer.
func results(defs []metricDef, reps []map[string]float64) map[string]metricResult {
	out := map[string]metricResult{}
	for _, d := range defs {
		var xs []float64
		for _, m := range reps {
			if v, ok := m[d.Name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			xs = []float64{0}
		}
		var v float64
		switch d.agg {
		case byMedian:
			v = median(xs)
		case byMean:
			v = mean(xs)
		case byGeomean:
			v = geomean(xs)
		}
		out[d.Name] = newMetricResult(d, v, xs)
	}
	return out
}

// bugVectors lists, for each planted bug of each design in order, the
// vectors applied when a rep first detected it; an undetected bug
// counts as the vector budget. It also returns how many were detected.
// A fleet's merged report lists every rank's detections, counted in
// rank-local vectors; the earliest wins.
func bugVectors(w workload, r *childResult) (vecs []float64, found int) {
	for _, dr := range r.Designs {
		first := map[string]uint64{}
		for _, b := range dr.Report.Bugs {
			if v, ok := first[b.Property]; !ok || b.Vectors < v {
				first[b.Property] = b.Vectors
			}
		}
		for _, p := range dr.Planted {
			v, ok := first[p]
			if ok {
				found++
			} else {
				v = w.Vectors
			}
			vecs = append(vecs, float64(v))
		}
	}
	return vecs, found
}

// repEndToEnd computes one untraced rep's end-to-end samples. The bug
// sample is the rep's geometric mean over planted bugs.
func repEndToEnd(w workload, r *childResult) map[string]float64 {
	var vectors uint64
	var covered, total, points int
	for _, dr := range r.Designs {
		rep := dr.Report
		vectors += rep.Vectors
		covered += rep.EdgesCovered
		total += rep.EdgesTotal
		points += rep.FinalPoints
	}
	vecs, found := bugVectors(w, r)
	return map[string]float64{
		"vectors_per_s":  ratio(float64(vectors), float64(r.RunNS)/1e9),
		"setup_s":        float64(r.SetupNS) / 1e9,
		"vectors_to_bug": geomean(vecs),
		"bugs_found":     float64(found),
		"edges_covered":  ratio(float64(covered), float64(total)),
		"points":         float64(points),
		"peak_rss_mb":    float64(r.MaxRSSKB) / 1024,
	}
}

// repLayers computes the per-layer metrics an untraced rep's reports
// and the coordinator give without any wrapper.
func repLayers(w workload, r *childResult) map[string]float64 {
	var t core.Timings
	var sum core.Report
	for _, dr := range r.Designs {
		rep := dr.Report
		sum.Vectors += rep.Vectors
		sum.Rollbacks += rep.Rollbacks
		sum.SymbolicInvocations += rep.SymbolicInvocations
		sum.SlicedVars += rep.SlicedVars
		sum.InfeasibleTargets += rep.InfeasibleTargets
		sum.CovEventsDropped += rep.CovEventsDropped
		sum.SolveCacheHits += rep.SolveCacheHits
		sum.SolveCacheMisses += rep.SolveCacheMisses
		sum.GraphStats.Nodes += rep.GraphStats.Nodes
		sum.GraphStats.Edges += rep.GraphStats.Edges
		rt := rep.Timings
		t.TotalNS += rt.TotalNS
		t.FuzzNS += rt.FuzzNS
		t.SymbolicNS += rt.SymbolicNS
		t.RollbackNS += rt.RollbackNS
		t.CheckpointBytes += rt.CheckpointBytes
		t.Solve.Dispatches += rt.Solve.Dispatches
		t.Solve.Sat += rt.Solve.Sat
		t.Solve.BlastNS += rt.Solve.BlastNS
		t.Solve.CDCLNS += rt.Solve.CDCLNS
		t.Solve.Clauses += rt.Solve.Clauses
	}
	// Engine-time shares; for a fleet, of the ranks' summed engine time.
	share := func(ns int64) float64 { return ratio(float64(ns), float64(t.TotalNS)) }
	m := map[string]float64{
		"cfg.nodes":                   float64(sum.GraphStats.Nodes),
		"cfg.edges":                   float64(sum.GraphStats.Edges),
		"core.fuzz_s":                 float64(t.FuzzNS) / 1e9,
		"core.guide_frac":             share(t.SymbolicNS),
		"core.guide_self_frac":        share(t.SymbolicNS - t.RollbackNS - t.Solve.BlastNS - t.Solve.CDCLNS),
		"core.rollback_frac":          share(t.RollbackNS),
		"core.rollbacks":              float64(sum.Rollbacks),
		"core.symbolic_invocations":   float64(sum.SymbolicInvocations),
		"core.checkpoint_mb":          float64(t.CheckpointBytes) / (1 << 20),
		"smt.dispatches":              float64(t.Solve.Dispatches),
		"smt.sat_frac":                ratio(float64(t.Solve.Sat), float64(t.Solve.Dispatches)),
		"smt.blast_frac":              share(t.Solve.BlastNS),
		"smt.cdcl_frac":               share(t.Solve.CDCLNS),
		"smt.clauses":                 float64(t.Solve.Clauses),
		"analysis.sliced_vars":        float64(sum.SlicedVars),
		"analysis.infeasible_targets": float64(sum.InfeasibleTargets),
		"cov.events_dropped":          float64(sum.CovEventsDropped),
		"go.alloc_bytes_per_vector":   ratio(r.Runtime.AllocBytes, float64(sum.Vectors)),
		"go.gc_cpu_s_per_s":           ratio(r.Runtime.GCCPUS, float64(r.RunNS)/1e9),
		"go.gc_cycles":                r.Runtime.GCCycles,
		"par.cache_hit_frac":          ratio(float64(sum.SolveCacheHits), float64(sum.SolveCacheHits+sum.SolveCacheMisses)),
	}
	if f := r.Fleet; f != nil {
		m["fleet.batches"] = float64(f.Batches)
		m["fleet.rejected_429"] = float64(f.Rejected429)
		m["fleet.journal_bytes"] = float64(f.JournalBytes)
		m["fleet.engine_busy_frac"] = ratio(float64(t.TotalNS), float64(w.Ranks)*float64(r.RunNS))
	}
	return m
}

// tracedLayers computes the metrics of the traced run. fuzzNSPerVector
// is the untraced reps' median, the base of trace.overhead.
func tracedLayers(w workload, r *childResult, fuzzNSPerVector float64) map[string]float64 {
	m := map[string]float64{}
	ls := r.Layers
	for _, name := range setupNames {
		m[name+"_s"] = ls.SetupS[name]
	}
	vectors, cycles := float64(ls.Vectors), float64(ls.Cycles)
	busy := func(l int) float64 { return float64(ls.BusyNS[layerNames[l]]) }
	m["uvm.next_item_ns"] = ratio(busy(lNextItem), vectors)
	m["simc.step_ns"] = ratio(busy(lStep), vectors)
	m["cov.sample_ns"] = ratio(busy(lCov), cycles)
	m["cov.branch_events_per_cycle"] = ratio(float64(ls.Branches), cycles)
	m["props.check_ns"] = ratio(busy(lProps), cycles)
	m["uvm.monitor_ns"] = ratio(busy(lMonitor), cycles)
	m["core.snapshot_ns"] = ratio(busy(lSnapshot), float64(ls.Calls[layerNames[lSnapshot]]))
	m["core.loop_ns"] = ratio(busy(lLoop), vectors)
	var sum float64
	for l := 0; l < nLayers; l++ {
		sum += busy(l)
	}
	m["trace.layer_sum_frac"] = ratio(sum, float64(ls.LoopNS))
	m["trace.overhead"] = ratio(ratio(float64(ls.LoopNS), vectors), fuzzNSPerVector)
	if f := r.Fleet; f != nil && f.Wire != nil {
		m["dist.rpcs"] = float64(f.Wire.RPCs)
		m["dist.rpc_wait_frac"] = ratio(f.Wire.WaitS, float64(w.Ranks)*float64(r.RunNS)/1e9)
		m["dist.rpc_non2xx"] = float64(f.Wire.Non2xx)
		m["dist.bytes_sent"] = float64(f.Wire.BytesSent)
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// fuzzNSPerVector is an untraced rep's engine fuzz time per vector,
// the base of trace.overhead.
func fuzzNSPerVector(r *childResult) float64 {
	var ns, vectors float64
	for _, dr := range r.Designs {
		ns += float64(dr.Report.Timings.FuzzNS)
		vectors += float64(dr.Report.Vectors)
	}
	return ratio(ns, vectors)
}
