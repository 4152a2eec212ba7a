// Command hdllint runs the static-analysis pass over a design and
// reports diagnostics: combinational loops, inferred latches, multiple
// drivers, unused/undriven signals, width truncations, and SMT-proven
// dead if/case arms.
//
// With no arguments it lints every builtin benchmark in
// internal/designs, applying the accepted-findings waiver registry.
// Exit status is non-zero when any error-severity diagnostic remains.
//
// Usage:
//
//	hdllint                      # all builtin designs
//	hdllint -bench uart          # one builtin design
//	hdllint -src d.sv -top m     # external source
//	hdllint -json                # machine-readable output
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/lint"
)

func main() {
	var (
		bench      = flag.String("bench", "", "builtin benchmark name (default: all)")
		srcF       = flag.String("src", "", "HDL source file")
		top        = flag.String("top", "", "top module (with -src)")
		jsonOut    = flag.Bool("json", false, "emit diagnostics as JSON")
		noWaivers  = flag.Bool("no-waivers", false, "ignore the builtin waiver registry")
		listChecks = flag.Bool("checks", false, "list the check catalogue and exit")
		werror     = flag.Bool("werror", false, "treat warnings as errors for the exit status")
		factsOut   = flag.Bool("facts", false, "emit the dataflow analysis facts (value ranges, levels, cones, dead arms) as JSON and exit")
	)
	flag.Parse()

	if *listChecks {
		for _, c := range lint.AllChecks() {
			fmt.Printf("%-14s %s\n", c.ID(), c.Description())
		}
		return
	}

	type job struct {
		name   string
		design *elab.Design
		opts   lint.Options
	}
	var jobs []job

	switch {
	case *srcF != "":
		if *top == "" {
			fail(fmt.Errorf("-top is required with -src"))
		}
		data, err := os.ReadFile(*srcF)
		if err != nil {
			fail(err)
		}
		ast, err := hdl.Parse(string(data))
		if err != nil {
			fail(err)
		}
		d, err := elab.Elaborate(ast, *top, nil)
		if err != nil {
			fail(err)
		}
		jobs = append(jobs, job{name: *top, design: d})
	default:
		benches := designs.AllBenchmarks()
		if *bench != "" {
			b, ok := designs.FindBenchmark(*bench)
			if !ok {
				fail(fmt.Errorf("unknown benchmark %q", *bench))
			}
			benches = []*designs.Benchmark{b}
		}
		for _, b := range benches {
			d, err := b.Elaborate()
			if err != nil {
				fail(err)
			}
			opts := lint.Options{ExternalReads: b.ExternalSignals()}
			if !*noWaivers {
				opts.Waivers = lint.BuiltinWaivers(b.Name)
			}
			jobs = append(jobs, job{name: b.Name, design: d, opts: opts})
		}
	}

	if *factsOut {
		// The -facts dump couples the IR-level dataflow pass (value
		// ranges, levelized order, cones) with the lint prover's
		// reachability facts for the same design.
		type factsRecord struct {
			analysis.Dump
			DeadArms    map[int][]int `json:"dead_arms,omitempty"`
			SolverQuery int           `json:"solver_queries"`
		}
		var records []factsRecord
		for _, j := range jobs {
			res := lint.Run(j.design, j.opts)
			rec := factsRecord{
				Dump:        analysis.Analyze(j.design).DumpFacts(),
				SolverQuery: res.Facts.SolverQueries,
			}
			rec.Design = j.name
			if len(res.Facts.DeadArms) > 0 {
				rec.DeadArms = res.Facts.DeadArms
			}
			records = append(records, rec)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fail(err)
		}
		return
	}

	errs, warns := 0, 0
	var results []*lint.Result
	for _, j := range jobs {
		res := lint.Run(j.design, j.opts)
		res.Design = j.name
		results = append(results, res)
		errs += res.Errors()
		warns += res.Warnings()
		if !*jsonOut {
			res.WriteText(os.Stdout)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fail(err)
		}
	}
	if errs > 0 || (*werror && warns > 0) {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hdllint:", err)
	os.Exit(1)
}
