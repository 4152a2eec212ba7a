// Command benchtab regenerates the paper's evaluation tables and
// figures (§5) at a configurable budget and prints them as text, and
// times what the campaign instruments cost: the flight recorder and
// the watch plane each write an on/off overhead record
// (BENCH_<exp>.json at the root). Campaign throughput and its
// per-layer split are measured by the end-to-end benchmark in bench/.
//
// Usage:
//
//	benchtab -exp table1
//	benchtab -exp table2 -budget 60000 -runs 4
//	benchtab -exp fig4 -budget 20000
//	benchtab -exp all
//
// Overhead experiments time two arms against each other, so they run
// only by name, never under -exp all. Each writes BENCH_<exp>.json
// unless -out names another path; -runs sets the interleaved runs per
// arm (0 keeps the experiment's default). A failed gate exits 1: an
// instrument that did no work or changed the campaign's report writes
// nothing, an overhead past 5% is still written with within_5pct false:
//
//	benchtab -exp flight
//	benchtab -exp watch -runs 7 -out BENCH_watch_new.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/eval"
)

// experiment is one -exp target: either a paper table, printed as text
// and run under -exp all, or an overhead experiment, which returns the
// record to write.
type experiment struct {
	name   string
	table  func(c eval.Config, w io.Writer) error
	record func(seed int64, runs int, w io.Writer) (any, error)
}

var experiments = []experiment{
	{name: "table1", table: table(eval.RunTable1, eval.WriteTable1)},
	{name: "table2", table: table(eval.RunTable2, eval.WriteTable2)},
	{name: "table3", table: table(eval.RunTable3, eval.WriteTable3)},
	{name: "fig4", table: table(eval.RunFigure4, func(w io.Writer, fig *eval.Figure4) {
		eval.WriteFigure4a(w, fig)
		fmt.Fprintln(w)
		eval.WriteFigure4b(w, fig)
		fmt.Fprintln(w, eval.Summary(fig))
	})},
	{name: "sec54", table: table(eval.RunSection54, eval.WriteSection54)},
	{name: "scalability", table: table(eval.RunScalability, eval.WriteScalability)},
	{name: "flight", record: runFlight},
	{name: "watch", record: runWatch},
}

// table adapts an eval experiment and its printer to a table entry.
func table[T any](run func(eval.Config) (T, error), write func(io.Writer, T)) func(eval.Config, io.Writer) error {
	return func(c eval.Config, w io.Writer) error {
		v, err := run(c)
		if err == nil {
			write(w, v)
		}
		return err
	}
}

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: table1|table2|table3|fig4|sec54|scalability|flight|watch|all (the paper tables run under all; flight and watch write overhead records and run only by name)")
		budget = flag.Uint64("budget", 0, "vector budget per IP run (0 = defaults)")
		soc    = flag.Uint64("soc-budget", 0, "vector budget for SoC curves")
		runs   = flag.Int("runs", 0, "runs averaged (figure 4, table 2) or interleaved runs per arm (overhead records); 0 = the experiment's default")
		seed   = flag.Int64("seed", 1, "base seed")
		out    = flag.String("out", "", "record output path (default BENCH_<exp>.json)")
	)
	flag.Parse()

	c := eval.Config{
		BudgetIP:  *budget,
		BudgetSoC: *soc,
		Runs:      *runs,
		Seed:      *seed,
		Interval:  100,
		Threshold: 2,
	}
	matched := false
	for _, e := range experiments {
		if e.name != *exp && (*exp != "all" || e.table == nil) {
			continue
		}
		matched = true
		if err := e.run(c, *out, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// run executes the experiment: a table prints to w; a record, when the
// experiment returns one, is written to out (default BENCH_<name>.json)
// even if it comes back with a failed gate.
func (e experiment) run(c eval.Config, out string, w io.Writer) error {
	if e.table != nil {
		if err := e.table(c, w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return nil
	}
	rec, err := e.record(c.Seed, c.Runs, w)
	if rec != nil {
		if out == "" {
			out = "BENCH_" + e.name + ".json"
		}
		if werr := writeRecord(out, rec); werr != nil {
			return werr
		}
	}
	return err
}
