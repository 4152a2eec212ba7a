package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/prof"
)

// The prof experiment measures what cost profiling costs: the same
// fixed-budget bus_arb campaign runs with a Profiler attached (eval
// counting, sampled eval timing, per-target solver ledgers) and with
// the nil-profiler no-op path. The work counter is the number of sim
// evals the profiler counted. As a free side check, the canonical
// ledgers of the profiled runs must be byte-identical — the determinism
// contract under the load the benchmark itself generates.

func runProf(seed int64, runs int, w io.Writer) (any, error) {
	const budget = 20_000
	b, ok := designs.FindBenchmark("bus_arb")
	if !ok {
		return nil, fmt.Errorf("bus_arb benchmark missing")
	}
	_, cc := campaign(b.Name, budget, 1, seed)
	var canonRef []byte
	return runOverhead(overheadExp{
		name:     "prof",
		title:    "Cost-profiler overhead",
		bench:    b.Name,
		budget:   budget,
		workers:  1,
		runs:     3,
		workUnit: "sim_evals",
		note: "on arm counts every sim eval, samples eval wall time, and keeps per-target solver " +
			"ledgers; off arm runs the engine's nil-profiler no-op path; the profiled runs' " +
			"canonical ledgers are asserted byte-identical",
		run: func(on bool) (instrumentRun, error) {
			d, err := b.Elaborate()
			if err != nil {
				return instrumentRun{}, err
			}
			c := cc
			if on {
				c.Prof = prof.New(prof.Options{})
			}
			eng, err := core.New(d, b.Properties, c)
			if err != nil {
				return instrumentRun{}, err
			}
			start := time.Now()
			rep, err := eng.Run()
			if err != nil {
				return instrumentRun{}, err
			}
			run := instrumentRun{wallNS: time.Since(start).Nanoseconds(), report: rep}
			if !on {
				return run, nil
			}
			dump := prof.NewDump(b.Name, seed, c.Prof.Ledgers())
			canon, err := dump.Canonical().MarshalIndent()
			if err != nil {
				return instrumentRun{}, err
			}
			if canonRef == nil {
				canonRef = canon
			} else if !bytes.Equal(canon, canonRef) {
				return instrumentRun{}, fmt.Errorf("canonical ledger diverged between identical runs")
			}
			full, err := dump.MarshalIndent()
			if err != nil {
				return instrumentRun{}, err
			}
			run.work = int64(dump.Totals.Evals)
			run.info = map[string]int64{
				"solver_dispatches": dump.Totals.Dispatches,
				"ledger_bytes":      int64(len(full)),
			}
			return run, nil
		},
	}, seed, runs, w)
}
