package par

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/obs"
)

// MergeReports folds per-worker reports into one campaign report,
// strictly in rank order so the result is independent of completion
// order. Coverage is recomputed as the per-cluster-graph set union of
// the worker coverage sets (cluster graphs are built deterministically,
// so node and edge IDs agree across workers — and across processes
// elaborating the same design, which is what lets internal/dist feed
// this function coverage snapshots deserialized from the wire and
// obtain a report identical to the in-process run).
//
// covs and reports are indexed by worker rank and must be parallel.
// Coverage fields are the set union over workers; counters are
// commutative sums; bugs are concatenated in rank order and deduped by
// (property, cycle); PrunedTargets, GraphStats and the static
// NodesTotal/EdgesTotal come from rank 0 (static per design); Curve is
// left empty — the interleaving-ordered live curve is a campaign
// artifact, not part of the merged report.
func MergeReports(covs []*cov.CFGCov, reports []*core.Report) *core.Report {
	m := &core.Report{}
	first := reports[0]
	m.PrunedTargets = first.PrunedTargets
	m.GraphStats = first.GraphStats
	m.NodesTotal, m.EdgesTotal = first.NodesTotal, first.EdgesTotal

	seen := map[string]bool{}
	for _, r := range reports {
		m.Vectors += r.Vectors
		m.Cycles += r.Cycles
		m.SymbolicInvocations += r.SymbolicInvocations
		m.SolvedPlans += r.SolvedPlans
		m.Rollbacks += r.Rollbacks
		m.Replays += r.Replays
		m.CheckpointsTaken += r.CheckpointsTaken
		m.VCDBytes += r.VCDBytes
		m.PrunedSolves += r.PrunedSolves
		m.SlicedVars += r.SlicedVars
		m.InfeasibleTargets += r.InfeasibleTargets
		m.CovEventsDropped += r.CovEventsDropped
		m.SolveCacheHits += r.SolveCacheHits
		m.SolveCacheMisses += r.SolveCacheMisses
		if r.Interrupted {
			m.Interrupted = true
		}
		mergeTimings(&m.Timings, &r.Timings)
		for _, b := range r.Bugs {
			key := fmt.Sprintf("%s@%d", b.Property, b.Cycle)
			if seen[key] {
				continue
			}
			seen[key] = true
			m.Bugs = append(m.Bugs, b)
		}
	}

	var nodes, edges []map[int]bool
	tuples := map[string]bool{}
	for _, cv := range covs {
		for gi := range cv.NodesSeen {
			if gi == len(nodes) {
				nodes = append(nodes, map[int]bool{})
				edges = append(edges, map[int]bool{})
			}
			union(nodes[gi], cv.NodesSeen[gi])
			union(edges[gi], cv.EdgesSeen[gi])
		}
		for t := range cv.Tuples {
			tuples[t] = true
		}
	}
	for gi := range nodes {
		m.NodesCovered += len(nodes[gi])
		m.EdgesCovered += len(edges[gi])
	}
	m.TupleCount = len(tuples)
	m.FinalPoints = m.NodesCovered + m.EdgesCovered + m.TupleCount
	return m
}

// union adds every ID of src to dst.
func union(dst, src map[int]bool) {
	for id := range src {
		dst[id] = true
	}
}

// mergeTimings sums the phase and solver totals (commutative, so the
// counts are rank-order independent; the NS fields are wall clock and
// carry the usual nondeterminism).
func mergeTimings(dst, src *core.Timings) {
	dst.TotalNS += src.TotalNS
	dst.FuzzNS += src.FuzzNS
	dst.SymbolicNS += src.SymbolicNS
	dst.RollbackNS += src.RollbackNS
	dst.VCDNS += src.VCDNS
	dst.CheckpointBytes += src.CheckpointBytes
	d, s := &dst.Solve, &src.Solve
	d.Dispatches += s.Dispatches
	d.Sat += s.Sat
	d.Unsat += s.Unsat
	d.Conflicts += s.Conflicts
	d.Decisions += s.Decisions
	d.Propagations += s.Propagations
	d.Clauses += s.Clauses
	d.Vars += s.Vars
	d.BlastNS += s.BlastNS
	d.CDCLNS += s.CDCLNS
}

// FinalizeMetrics folds the merged campaign totals into the
// campaign-level (unprefixed) instruments, so /status and the
// symbfuzz -metrics snapshot show campaign sums next to the w<N>_
// per-worker series. Shared by the in-process orchestrator and the
// distributed coordinator.
func FinalizeMetrics(o *obs.Observer, m *core.Report) {
	reg := o.Registry()
	if reg == nil {
		return
	}
	reg.Counter("solver_dispatches").Add(int64(m.Timings.Solve.Dispatches))
	reg.Counter("solver_sat").Add(int64(m.Timings.Solve.Sat))
	reg.Counter("solver_unsat").Add(int64(m.Timings.Solve.Unsat))
	reg.Counter("plans_applied").Add(int64(m.SolvedPlans))
	reg.Counter("stagnation_events").Add(int64(m.SymbolicInvocations))
	reg.Counter("bugs_found").Add(int64(len(m.Bugs)))
	reg.Counter("cov_events_dropped").Add(int64(m.CovEventsDropped))
	reg.Counter("checkpoint_bytes").Add(m.Timings.CheckpointBytes)
	reg.Counter("prune_skips").Add(int64(m.PrunedSolves))
	reg.Counter("slice_skips").Add(int64(m.InfeasibleTargets))
	reg.Counter("sliced_vars").Add(int64(m.SlicedVars))
}
