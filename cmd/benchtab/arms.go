package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/dist"
)

// This file is the measurement path the overhead experiments share:
// the interleaved arm runner, the record writer, the tuned campaign
// configuration, and the on/off overhead harness that the flight, prof
// and watch experiments are instances of.

// arm runs the measured work once and returns its wall time in
// nanoseconds. Set-up that is not part of the measurement (elaboration,
// stimulus generation) stays outside the timed region.
type arm func() (int64, error)

// armStats summarizes one arm's runs: the median wall time and the
// min/max spread around it.
type armStats struct {
	MedianNS int64 `json:"median_ns"`
	MinNS    int64 `json:"min_ns"`
	MaxNS    int64 `json:"max_ns"`
}

// runArms runs the arms interleaved (A, B, A, B, …) runs times, so slow
// drift on the machine lands on every arm alike, and returns each arm's
// stats in argument order.
func runArms(runs int, arms ...arm) ([]armStats, error) {
	if runs < 1 {
		return nil, fmt.Errorf("runs must be positive, got %d", runs)
	}
	walls := make([][]int64, len(arms))
	for r := 0; r < runs; r++ {
		for i, a := range arms {
			ns, err := a()
			if err != nil {
				return nil, fmt.Errorf("run %d, arm %d: %w", r, i, err)
			}
			walls[i] = append(walls[i], ns)
		}
	}
	stats := make([]armStats, len(arms))
	for i, w := range walls {
		slices.Sort(w)
		n := len(w)
		stats[i] = armStats{MedianNS: (w[(n-1)/2] + w[n/2]) / 2, MinNS: w[0], MaxNS: w[n-1]}
	}
	return stats, nil
}

// recordHeader opens every BENCH_*.json record.
type recordHeader struct {
	Schema string `json:"schema"`
	Cores  int    `json:"cores"`
	Seed   int64  `json:"seed"`
	Note   string `json:"note"`
}

// writeRecord writes rec as indented JSON with a trailing newline.
func writeRecord(path string, rec any) error {
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// campaign returns the tuned campaign every overhead experiment runs
// (I=100, Th=2, snapshots, fuzzing on past full coverage) as a wire
// spec and as the matching engine configuration.
func campaign(bench string, budget uint64, workers int, seed int64) (dist.CampaignSpec, core.Config) {
	spec := dist.CampaignSpec{
		Bench:                 bench,
		Interval:              100,
		Threshold:             2,
		MaxVectors:            budget,
		Seed:                  seed,
		Workers:               workers,
		UseSnapshots:          true,
		ContinueAfterCoverage: true,
	}
	return spec, core.Config{
		Interval:              spec.Interval,
		Threshold:             spec.Threshold,
		MaxVectors:            spec.MaxVectors,
		Seed:                  spec.Seed,
		UseSnapshots:          spec.UseSnapshots,
		ContinueAfterCoverage: spec.ContinueAfterCoverage,
	}
}

// sameReport compares two merged reports on every deterministic field:
// wall-clock timings are zeroed, and the plan-cache hit/miss split,
// which depends on which rank solved first, is folded into its sum.
func sameReport(a, b *core.Report) bool {
	norm := func(r *core.Report) core.Report {
		c := *r
		c.Timings.TotalNS, c.Timings.FuzzNS, c.Timings.SymbolicNS = 0, 0, 0
		c.Timings.RollbackNS, c.Timings.VCDNS = 0, 0
		c.Timings.Solve.BlastNS, c.Timings.Solve.CDCLNS = 0, 0
		c.SolveCacheHits += c.SolveCacheMisses
		c.SolveCacheMisses = 0
		return c
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// overheadBudget is the largest wall-time share an instrument may add
// to a campaign before its overhead experiment fails.
const overheadBudget = 0.05

// OverheadBench is the record the flight, prof and watch experiments
// write: the same campaign timed with an instrument on and off.
type OverheadBench struct {
	recordHeader
	Experiment string `json:"experiment"`
	Bench      string `json:"bench"`
	Budget     uint64 `json:"budget"`
	Workers    int    `json:"workers"`
	Runs       int    `json:"runs"`

	On  armStats `json:"on"`
	Off armStats `json:"off"`

	// Overhead is the on arm's median wall over the off arm's.
	Overhead float64 `json:"overhead"`
	Within5  bool    `json:"within_5pct"`

	// Work counts what the instrument did in one on-arm run, in
	// WorkUnit; an instrument that did nothing was not measured.
	Work     int64  `json:"work"`
	WorkUnit string `json:"work_unit"`
	// ParityEqual records that every run of both arms produced the same
	// report on every deterministic field: the instrument observes the
	// campaign and never steers it.
	ParityEqual bool `json:"parity_equal"`

	// Info holds informational counters from the last on-arm run.
	Info map[string]int64 `json:"info,omitempty"`
}

// instrumentRun is one timed campaign of an overhead experiment.
type instrumentRun struct {
	wallNS int64
	report *core.Report
	work   int64
	info   map[string]int64
}

// overheadExp describes one on/off overhead experiment.
type overheadExp struct {
	name, title string
	bench       string
	budget      uint64
	workers     int
	runs        int // default runs per arm
	workUnit    string
	note        string
	// run executes one campaign with the instrument on or off.
	run func(on bool) (instrumentRun, error)
}

// runOverhead times x's on and off arms interleaved and builds its
// record. An instrument that did no work, or any run whose report
// differs from the first, invalidates the measurement: no record, an
// error. An overhead past overheadBudget is a valid measurement that
// fails its gate: the record comes back with the error.
func runOverhead(x overheadExp, seed int64, runs int, w io.Writer) (any, error) {
	if runs < 1 {
		runs = x.runs
	}
	var ref *core.Report
	rec := &OverheadBench{
		recordHeader: recordHeader{Schema: "symbfuzz-bench-overhead/v1", Cores: runtime.NumCPU(), Seed: seed, Note: x.note},
		Experiment:   x.name,
		Bench:        x.bench,
		Budget:       x.budget,
		Workers:      x.workers,
		Runs:         runs,
		WorkUnit:     x.workUnit,
		ParityEqual:  true,
	}
	side := func(on bool) arm {
		return func() (int64, error) {
			r, err := x.run(on)
			if err != nil {
				return 0, err
			}
			if ref == nil {
				ref = r.report
			} else if !sameReport(ref, r.report) {
				rec.ParityEqual = false
			}
			if on {
				rec.Work, rec.Info = r.work, r.info
			}
			return r.wallNS, nil
		}
	}
	stats, err := runArms(runs, side(true), side(false))
	if err != nil {
		return nil, err
	}
	rec.On, rec.Off = stats[0], stats[1]
	rec.Overhead = float64(rec.On.MedianNS) / float64(rec.Off.MedianNS)
	rec.Within5 = rec.Overhead <= 1+overheadBudget

	fmt.Fprintf(w, "%s (%s, %d vectors, %d workers, median of %d runs per arm)\n",
		x.title, x.bench, x.budget, x.workers, runs)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Fprintf(w, "  on:  %10.2fms  [%.2f, %.2f]\n", ms(rec.On.MedianNS), ms(rec.On.MinNS), ms(rec.On.MaxNS))
	fmt.Fprintf(w, "  off: %10.2fms  [%.2f, %.2f]\n", ms(rec.Off.MedianNS), ms(rec.Off.MinNS), ms(rec.Off.MaxNS))
	fmt.Fprintf(w, "  work: %d %s\n  overhead: %.4fx\n", rec.Work, rec.WorkUnit, rec.Overhead)

	switch {
	case rec.Work == 0:
		return nil, fmt.Errorf("the instrument did no work (0 %s), so nothing was measured", x.workUnit)
	case !rec.ParityEqual:
		return nil, fmt.Errorf("reports diverged between runs: the instrument changed the campaign")
	case !rec.Within5:
		return rec, fmt.Errorf("overhead %.2f%% exceeds the %.0f%% budget",
			(rec.Overhead-1)*100, overheadBudget*100)
	}
	return rec, nil
}
