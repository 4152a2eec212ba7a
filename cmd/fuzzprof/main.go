// Command fuzzprof explores a SymbFuzz campaign's cost ledger: where
// simulator and solver effort went, keyed to design constructs — IR
// processes on the simulator side, CFG targets on the solver side. The
// ledger is derived from a campaign trace (symbfuzz -trace; add -prof
// for the simulator side): solve and plan_apply spans give the solver
// ledger, each lane's campaign_end the per-process eval counts.
//
// The terminal report renders a treemap of solver cost by CFG target,
// the hot-process and hot-target tables, and the cumulative
// coverage-unlocked-per-cost curve. All visuals are sized by the
// ledger's deterministic counters, so re-rendering the same trace is
// byte-identical.
//
// Usage:
//
//	symbfuzz -bench scmi_mailbox -trace trace.jsonl -prof
//	fuzzprof trace.jsonl                    # terminal report
//	fuzzprof -flame flame.json trace.jsonl  # flamegraph-compatible JSON
//	fuzzprof -canonical trace.jsonl         # canonical (annotation-free) ledger
//
// -canonical prints the ledger with every wall-clock annotation
// stripped; for a fixed seed its bytes are identical across runs,
// worker counts, and the in-process vs. distributed orchestrators —
// CI diffs it across orchestrators as the determinism gate.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
)

func main() {
	canonical := flag.Bool("canonical", false, "print the canonical ledger (annotations stripped) and exit")
	flameOut := flag.String("flame", "", "write flamegraph-compatible JSON ({name,value,children}) to this path")
	topN := flag.Int("top", 10, "rows in the hot-process / hot-target tables")
	width := flag.Int("width", 72, "treemap width in characters")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fuzzprof [-canonical] [-flame out.json] [-top N] <trace.jsonl>")
		os.Exit(1)
	}

	d, err := readLedger(flag.Arg(0))
	if err != nil {
		fail(err)
	}

	if *canonical {
		out, err := d.Canonical().MarshalIndent()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(out)
		return
	}

	if *flameOut != "" {
		data, err := flameJSON(d)
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*flameOut, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("flamegraph JSON: %s\n", *flameOut)
	}

	renderReport(os.Stdout, d, *topN, *width)
}

// readLedger parses a JSONL campaign trace and derives its cost ledger.
func readLedger(path string) (*obs.CostLedger, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	l, err := obs.BuildCostLedger(events)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fuzzprof:", err)
	os.Exit(1)
}
