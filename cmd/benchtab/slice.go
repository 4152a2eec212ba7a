package main

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/designs"
)

// The slice experiment measures what cone-of-influence slicing buys the
// solver: the same campaign (same seed, same budget) runs once with
// slicing on (the default engine path) and once with the DisableSlicing
// ablation, and the record compares mean per-dispatch bit-blast time.
// Slicing is trajectory-neutral — both arms must agree on coverage and
// solved plans — so the blast-time delta is attributable to the smaller
// queries alone.

// SliceRow is one design's slicing measurement.
type SliceRow struct {
	Bench  string `json:"bench"`
	Budget uint64 `json:"budget"`

	Dispatches  int64 `json:"dispatches"`
	SolvedPlans int   `json:"solved_plans"`

	FullBlastNS   int64 `json:"full_mean_blast_ns"`
	SlicedBlastNS int64 `json:"sliced_mean_blast_ns"`
	FullSolveNS   int64 `json:"full_mean_solve_ns"`
	SlicedSolveNS int64 `json:"sliced_mean_solve_ns"`

	// BlastReduction is 1 - sliced/full mean blast time.
	BlastReduction float64 `json:"blast_reduction"`

	SlicedVars        int  `json:"sliced_vars"`
	InfeasibleTargets int  `json:"infeasible_targets"`
	CoverageAgrees    bool `json:"coverage_agrees"`
}

// SliceBench is the BENCH_slice.json record.
type SliceBench struct {
	recordHeader
	Rows []SliceRow `json:"rows"`
}

// sliceTargets reuses the par experiment's design/budget pairs: the SoC
// as the headline target and the bus arbiter as the small-design
// control.
var sliceTargets = parTargets

func runSlice(seed int64, _ int, w io.Writer) (any, error) {
	bench := SliceBench{
		recordHeader: header("symbfuzz-bench-slice/v1", seed,
			"both arms run the identical campaign (slicing is trajectory-neutral); "+
				"blast_reduction compares mean per-dispatch bit-blast wall time"),
	}
	for _, tgt := range sliceTargets {
		b, ok := designs.FindBenchmark(tgt.name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", tgt.name)
		}
		row, err := measureSlice(b, tgt.budget, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tgt.name, err)
		}
		bench.Rows = append(bench.Rows, *row)
	}

	fmt.Fprintf(w, "Cone-of-influence slicing (mean per-dispatch solver time, sliced vs ablation)\n")
	fmt.Fprintf(w, "%-16s %8s %10s %12s %12s %10s %10s %8s\n",
		"bench", "budget", "dispatches", "full blast", "sliced blast",
		"reduction", "vars saved", "refuted")
	for _, r := range bench.Rows {
		fmt.Fprintf(w, "%-16s %8d %10d %10.2fus %10.2fus %9.1f%% %10d %8d\n",
			r.Bench, r.Budget, r.Dispatches,
			float64(r.FullBlastNS)/1e3, float64(r.SlicedBlastNS)/1e3,
			100*r.BlastReduction, r.SlicedVars, r.InfeasibleTargets)
	}
	return bench, nil
}

func measureSlice(b *designs.Benchmark, budget uint64, seed int64) (*SliceRow, error) {
	_, cc := campaign(b.Name, budget, 1, seed)
	run := func(disable bool) (*core.Report, error) {
		d, err := b.Elaborate()
		if err != nil {
			return nil, err
		}
		c := cc
		c.DisableSlicing = disable
		eng, err := core.New(d, b.Properties, c)
		if err != nil {
			return nil, err
		}
		return eng.Run()
	}
	sliced, err := run(false)
	if err != nil {
		return nil, err
	}
	full, err := run(true)
	if err != nil {
		return nil, err
	}
	if sliced.FinalPoints != full.FinalPoints || sliced.Vectors != full.Vectors ||
		sliced.SolvedPlans != full.SolvedPlans {
		return nil, fmt.Errorf("sliced and unsliced arms diverged: slicing is not trajectory-neutral here")
	}
	fs, ss := &full.Timings.Solve, &sliced.Timings.Solve
	if fs.Dispatches == 0 || ss.Dispatches == 0 {
		return nil, fmt.Errorf("no solver dispatches to compare")
	}
	row := &SliceRow{
		Bench:             b.Name,
		Budget:            budget,
		Dispatches:        int64(ss.Dispatches),
		SolvedPlans:       sliced.SolvedPlans,
		FullBlastNS:       fs.BlastNS / int64(fs.Dispatches),
		SlicedBlastNS:     ss.BlastNS / int64(ss.Dispatches),
		FullSolveNS:       (fs.BlastNS + fs.CDCLNS) / int64(fs.Dispatches),
		SlicedSolveNS:     (ss.BlastNS + ss.CDCLNS) / int64(ss.Dispatches),
		SlicedVars:        sliced.SlicedVars,
		InfeasibleTargets: sliced.InfeasibleTargets,
		CoverageAgrees:    true,
	}
	row.BlastReduction = 1 - float64(row.SlicedBlastNS)/float64(row.FullBlastNS)
	return row, nil
}
