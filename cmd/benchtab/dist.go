package main

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/par"
)

// The dist experiment measures what the wire costs: the same
// 2-worker campaign runs once in-process (par orchestrator, shared
// memory) and once distributed (a fleet coordinator hosting the
// campaign as -serve does, with workers speaking the /v1 HTTP
// protocol over loopback), both racing the global frontier
// to the coverage a single worker discovers on the budget. The two
// trajectories are identical by construction — the record isolates
// the protocol overhead (serialized publishes, remote plan cache,
// lease heartbeats) in the time-to-coverage and wall columns.

// DistRow is one design's in-process vs distributed measurement.
type DistRow struct {
	Bench        string `json:"bench"`
	Budget       uint64 `json:"budget"`
	TargetPoints int    `json:"target_points"`

	InprocWallNS int64 `json:"inproc_wall_ns"`
	DistWallNS   int64 `json:"dist_wall_ns"`

	// WireOverhead is dist wall over in-process wall to the same
	// coverage target — the cost of crossing the loopback for batched
	// publishes, cache consultations and lease traffic.
	WireOverhead float64 `json:"wire_overhead"`

	// MergedEqual records that the two campaigns' merged reports agree
	// on the structural invariants (graph totals, pruning). Full
	// byte-parity only holds for fixed-budget campaigns — a
	// stop-at-target race truncates each worker at a wall-clock-
	// dependent vector count — so that contract lives in the dist
	// package tests, not here.
	MergedEqual bool `json:"merged_equal"`
}

// DistBench is the BENCH_dist.json record.
type DistBench struct {
	recordHeader
	Workers int       `json:"workers"`
	Rows    []DistRow `json:"rows"`
}

// distWorkers is the rank count of both arms.
const distWorkers = 2

var distTargets = []struct {
	name   string
	budget uint64
}{
	{"scmi_mailbox", 3000},
	{"bus_arb", 8000},
}

func runDist(seed int64, _ int, w io.Writer) (any, error) {
	bench := DistBench{
		recordHeader: header("symbfuzz-bench-dist/v1", seed,
			"dist runs the full /v1 wire protocol over loopback HTTP in one OS process; "+
				"wire_overhead therefore excludes physical network latency but includes "+
				"serialization, the remote plan cache, and lease traffic"),
		Workers: distWorkers,
	}
	for _, tgt := range distTargets {
		b, ok := designs.FindBenchmark(tgt.name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", tgt.name)
		}
		row, err := measureDist(b, tgt.budget, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tgt.name, err)
		}
		bench.Rows = append(bench.Rows, *row)
	}

	fmt.Fprintf(w, "Distributed overhead (time to single-worker coverage, %d workers, loopback)\n", distWorkers)
	fmt.Fprintf(w, "%-16s %8s %8s %14s %14s %10s\n",
		"bench", "budget", "target", "inproc wall", "dist wall", "overhead")
	for _, r := range bench.Rows {
		fmt.Fprintf(w, "%-16s %8d %8d %12.2fms %12.2fms %9.2fx\n",
			r.Bench, r.Budget, r.TargetPoints,
			float64(r.InprocWallNS)/1e6, float64(r.DistWallNS)/1e6, r.WireOverhead)
	}
	return bench, nil
}

func measureDist(b *designs.Benchmark, budget uint64, seed int64) (*DistRow, error) {
	spec, cc := campaign(b.Name, budget, distWorkers, seed)

	// Discovery: what does one lane reach on this budget?
	disc, err := par.Run(b.Elaborate, b.Properties, par.Config{Config: cc, Workers: 1})
	if err != nil {
		return nil, err
	}
	target := disc.Merged.FinalPoints

	// In-process: N workers race the shared-memory frontier.
	inproc, err := par.Run(b.Elaborate, b.Properties,
		par.Config{Config: cc, Workers: distWorkers, StopAtPoints: target})
	if err != nil {
		return nil, err
	}

	// Distributed: the same campaign over the loopback wire.
	distRep, _, err := hostOnFleet(spec, target)
	if err != nil {
		return nil, err
	}
	if inproc.TimeToTargetNS <= 0 || distRep.TimeToTargetNS <= 0 {
		return nil, fmt.Errorf("an arm missed the %d-point target (in-process: %dns, dist: %dns)",
			target, inproc.TimeToTargetNS, distRep.TimeToTargetNS)
	}
	if !mergedAgree(inproc.Merged, distRep.Merged) {
		return nil, fmt.Errorf("merged reports disagree on graph totals or pruning")
	}
	return &DistRow{
		Bench:        b.Name,
		Budget:       budget,
		TargetPoints: target,
		InprocWallNS: inproc.TimeToTargetNS,
		DistWallNS:   distRep.TimeToTargetNS,
		WireOverhead: float64(distRep.TimeToTargetNS) / float64(inproc.TimeToTargetNS),
		MergedEqual:  true,
	}, nil
}

// mergedAgree compares the campaign-invariant merged-report fields.
// Everything trajectory-dependent (bug lists, vector counts, final
// coverage past the target) varies with where the stop-at-target race
// truncates each worker, so only the elaboration-derived structure
// participates here.
func mergedAgree(a, b *core.Report) bool {
	return a.NodesTotal == b.NodesTotal &&
		a.EdgesTotal == b.EdgesTotal &&
		a.PrunedTargets == b.PrunedTargets
}
