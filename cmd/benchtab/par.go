package main

import (
	"fmt"
	"io"

	"repro/internal/designs"
	"repro/internal/par"
)

// The par experiment measures time-to-coverage scaling of the parallel
// orchestrator. For each target design it runs three campaigns:
//
//  1. Discovery: a single worker burns the full vector budget and the
//     coverage it ends with becomes the target C.
//  2. Baseline: a single worker with the same seed re-runs with
//     StopAtPoints=C, timing how long one lane takes to reach C.
//  3. Parallel: N workers (same base seed, derived per-worker seeds)
//     run with StopAtPoints=C, timing how long the merged frontier
//     takes to reach the same coverage.
//
// Wall speedup on this machine is bounded by the available cores —
// workers are CPU-bound simulation lanes. The record therefore also
// carries the scheduling-independent measure (total vectors to target,
// which a k-core machine divides across lanes) and the wall ratio
// projected for a machine with at least `workers` cores. Both arms
// must reach the target; a miss is an error, never a zero speedup.

// ParRow is one design's scaling measurement.
type ParRow struct {
	Bench        string `json:"bench"`
	Budget       uint64 `json:"budget"`
	TargetPoints int    `json:"target_points"`

	SingleWallNS int64  `json:"single_wall_ns"`
	SingleVec    uint64 `json:"single_vectors_to_target"`
	ParWallNS    int64  `json:"par_wall_ns"`
	ParVec       uint64 `json:"par_vectors_to_target"`

	// WallSpeedup is single wall over parallel wall on this machine.
	WallSpeedup float64 `json:"wall_speedup"`
	// VectorEfficiency is single vectors over summed parallel vectors
	// to the same target — 1.0 means seed diversity fully pays for the
	// split, i.e. wall scales with cores.
	VectorEfficiency float64 `json:"vector_efficiency"`
	// ProjectedWallRatio is par_wall/(workers*single_wall): the
	// expected parallel:single wall ratio on a machine with >= workers
	// cores, where the lanes actually run concurrently.
	ProjectedWallRatio float64 `json:"projected_wall_ratio"`
}

// ParBench is the BENCH_par.json record.
type ParBench struct {
	recordHeader
	Workers int      `json:"workers"`
	Rows    []ParRow `json:"rows"`
}

// parWorkers is the lane count of the parallel arm.
const parWorkers = 4

// parTargets maps the experiment's design names to their discovery
// budgets: the SoC is the paper's headline target, the bus arbiter the
// small-design control. Budgets are chosen so the discovery run ends on
// a coverage plateau — a target the union frontier reaches by seed
// diversity rather than by replaying one lane's deepest solver chain.
var parTargets = []struct {
	name   string
	budget uint64
}{
	{"opentitan_mini", 7000},
	{"bus_arb", 20000},
}

func runPar(seed int64, _ int, w io.Writer) (any, error) {
	bench := ParBench{
		recordHeader: header("symbfuzz-bench-par/v1", seed,
			"wall_speedup is measured on this machine and bounded by cores; "+
				"projected_wall_ratio assumes >= workers cores (lanes are CPU-bound and independent)"),
		Workers: parWorkers,
	}
	for _, tgt := range parTargets {
		b, ok := designs.FindBenchmark(tgt.name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", tgt.name)
		}
		row, err := measurePar(b, tgt.budget, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tgt.name, err)
		}
		bench.Rows = append(bench.Rows, *row)
	}

	fmt.Fprintf(w, "Parallel scaling (time to single-worker coverage, %d workers, %d cores)\n",
		parWorkers, bench.Cores)
	fmt.Fprintf(w, "%-16s %8s %8s %12s %12s %8s %8s %10s\n",
		"bench", "budget", "target", "1w wall", fmt.Sprintf("%dw wall", parWorkers),
		"speedup", "vec-eff", "proj-ratio")
	for _, r := range bench.Rows {
		fmt.Fprintf(w, "%-16s %8d %8d %10.2fms %10.2fms %7.2fx %8.2f %10.2f\n",
			r.Bench, r.Budget, r.TargetPoints,
			float64(r.SingleWallNS)/1e6, float64(r.ParWallNS)/1e6,
			r.WallSpeedup, r.VectorEfficiency, r.ProjectedWallRatio)
	}
	return bench, nil
}

func measurePar(b *designs.Benchmark, budget uint64, seed int64) (*ParRow, error) {
	_, cc := campaign(b.Name, budget, 1, seed)
	run := func(workers, stopAt int) (*par.Report, error) {
		return par.Run(b.Elaborate, b.Properties, par.Config{Config: cc, Workers: workers, StopAtPoints: stopAt})
	}

	// Discovery: what does one lane reach on this budget?
	disc, err := run(1, 0)
	if err != nil {
		return nil, err
	}
	target := disc.Merged.FinalPoints

	// Baseline: time for the same lane to get there.
	single, err := run(1, target)
	if err != nil {
		return nil, err
	}

	// Parallel: N lanes race the merged frontier to the same target.
	parallel, err := run(parWorkers, target)
	if err != nil {
		return nil, err
	}
	if single.TimeToTargetNS <= 0 || parallel.TimeToTargetNS <= 0 {
		return nil, fmt.Errorf("an arm missed the %d-point target (1 worker: %dns, %d workers: %dns)",
			target, single.TimeToTargetNS, parWorkers, parallel.TimeToTargetNS)
	}

	row := &ParRow{
		Bench:        b.Name,
		Budget:       budget,
		TargetPoints: target,
		SingleWallNS: single.TimeToTargetNS,
		SingleVec:    vectorsToTarget(single, target),
		ParWallNS:    parallel.TimeToTargetNS,
		ParVec:       vectorsToTarget(parallel, target),
	}
	row.WallSpeedup = float64(row.SingleWallNS) / float64(row.ParWallNS)
	row.ProjectedWallRatio = float64(row.ParWallNS) / (parWorkers * float64(row.SingleWallNS))
	row.VectorEfficiency = float64(row.SingleVec) / float64(row.ParVec)
	return row, nil
}

// vectorsToTarget reads the campaign curve for the summed vector count
// at which the global frontier first reached the target.
func vectorsToTarget(r *par.Report, target int) uint64 {
	for _, p := range r.Curve {
		if p.Points >= target {
			return p.Vectors
		}
	}
	return r.Merged.Vectors
}
