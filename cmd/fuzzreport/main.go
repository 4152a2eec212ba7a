// Command fuzzreport is the one reader of a SymbFuzz campaign trace
// (the JSONL stream written by symbfuzz -trace, or a coordinator's
// merged multi-rank trace). It always validates the trace — event
// schema, per-lane monotonicity, campaign framing and span referential
// integrity — and then prints three sections:
//
//   - the campaign report: coverage over time per rank, the top solves
//     ranked by coverage unlocked (counting cross-rank plan reuses), the
//     unsolved-target table, the per-rank solver time breakdown and,
//     when the trace spans processes, the cross-process causal chain;
//   - the cost ledger: where simulator and solver effort went, keyed to
//     IR processes and CFG targets (add -prof to symbfuzz for the
//     simulator side), and the coverage-unlocked-per-cost curve;
//   - the event and span counts the validation saw.
//
// -html writes a self-contained HTML report (inline CSS + SVG, no
// external assets). -flame writes the ledger as flamegraph-compatible
// JSON ({name,value,children}). -canonical prints only the ledger with
// every wall-clock annotation stripped; for a fixed seed its bytes are
// identical across runs, worker counts, and the in-process vs.
// distributed orchestrators, which CI diffs as the determinism gate.
// Every output depends only on the trace, so re-rendering it is
// byte-identical.
//
// -metrics reconciles the trace's final coverage_points and vector
// count against a metrics snapshot's gauges. -bench builds the named
// benchmark's engine (-fixed: its bug-fixed variant) and checks that
// every solve span targets an edge of the engine's CFG.
//
// Usage:
//
//	fuzzreport trace.jsonl
//	fuzzreport -html report.html -flame flame.json trace.jsonl
//	fuzzreport -canonical trace.jsonl
//	fuzzreport -metrics metrics.json -bench scmi_mailbox trace.jsonl
//	symbfuzz ... -trace /dev/stdout | fuzzreport -
//	fuzzreport -fleet [-html rollup.html] fleet.json
//
// With -fleet the input is not a trace but the whole-fleet rollup
// JSON from `fuzzctl fleet -out` (the /v1/fleet document); the report
// is then one row per campaign with its admission/queue telemetry.
//
// Exit status 0 on a valid trace that passes every requested check, 1
// otherwise.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fuzzreport:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("fuzzreport", flag.ContinueOnError)
	htmlOut := fs.String("html", "", "write a self-contained HTML report to this path")
	fleetIn := fs.Bool("fleet", false, "input is a fleet rollup JSON (from fuzzctl fleet -out), not a trace")
	canonical := fs.Bool("canonical", false, "print only the canonical cost ledger (annotations stripped)")
	flameOut := fs.String("flame", "", "write the cost ledger as flamegraph-compatible JSON to this path")
	metrics := fs.String("metrics", "", "metrics snapshot JSON to reconcile coverage_points and vectors against")
	bench := fs.String("bench", "", "benchmark name: check every solve span targets an edge of its CFG")
	fixed := fs.Bool("fixed", false, "with -bench, use the bug-fixed design variant")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: fuzzreport [-html report.html] [-flame flame.json] [-canonical] [-metrics metrics.json] [-bench name [-fixed]] <trace.jsonl | -> | fuzzreport -fleet [-html rollup.html] <fleet.json>")
	}

	var data []byte
	var err error
	if fs.Arg(0) == "-" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		return err
	}

	if *fleetIn {
		return runFleetReport(stdout, data, *htmlOut)
	}

	events, err := obs.ReadEvents(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("invalid trace: %w", err)
	}
	rep, err := obs.BuildCampaignReport(events)
	if err != nil {
		return fmt.Errorf("invalid trace: %w", err)
	}
	if *metrics != "" {
		if err := reconcileMetrics(*metrics, &rep.Summary); err != nil {
			return err
		}
	}
	solvesChecked := -1
	if *bench != "" {
		if solvesChecked, err = checkSolveEdges(*bench, *fixed, events); err != nil {
			return err
		}
	}

	if *canonical {
		out, err := rep.Ledger.Canonical().MarshalIndent()
		if err != nil {
			return err
		}
		_, err = stdout.Write(out)
		return err
	}

	obs.RenderText(stdout, rep)
	fmt.Fprintln(stdout)
	renderLedger(stdout, rep.Ledger)
	fmt.Fprintln(stdout)
	renderCounts(stdout, rep)
	if solvesChecked >= 0 {
		fmt.Fprintf(stdout, "solve spans vs %s CFG: %d checked, all edges exist\n", *bench, solvesChecked)
	}

	if *htmlOut != "" {
		var buf bytes.Buffer
		if err := obs.RenderHTML(&buf, rep); err != nil {
			return err
		}
		if err := os.WriteFile(*htmlOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote HTML report to %s (%d bytes)\n", *htmlOut, buf.Len())
	}
	if *flameOut != "" {
		out, err := flameJSON(rep.Ledger)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*flameOut, out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "flamegraph JSON: %s\n", *flameOut)
	}
	return nil
}

// reconcileMetrics checks the trace's final coverage_points and vector
// count against a metrics snapshot's gauges, so trace and registry
// agree.
func reconcileMetrics(path string, sum *obs.TraceSummary) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap obs.StatusSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if got := snap.Metrics.Gauges["coverage_points"]; got != int64(sum.FinalPoints) {
		return fmt.Errorf("invalid trace: trace final coverage_points %d != metrics gauge %d", sum.FinalPoints, got)
	}
	if got := snap.Metrics.Gauges["vectors_applied"]; got != int64(sum.FinalVectors) {
		return fmt.Errorf("invalid trace: trace final vectors %d != metrics gauge %d", sum.FinalVectors, got)
	}
	return nil
}

// checkSolveEdges builds the benchmark's engine, so the CFG is the
// engine's own partition (post-reset valuation, reset input pinned
// deasserted), and verifies every solve span in the trace names a
// (cluster, edge) that exists in it. It returns the spans checked.
func checkSolveEdges(name string, fixed bool, events []obs.Event) (int, error) {
	b, ok := designs.Lookup(name, !fixed)
	if !ok {
		return 0, fmt.Errorf("unknown benchmark %q", name)
	}
	d, err := b.Elaborate()
	if err != nil {
		return 0, err
	}
	eng, err := core.New(d, nil, core.Config{})
	if err != nil {
		return 0, err
	}
	part := eng.Graph()
	checked := 0
	for _, ev := range events {
		if ev.Type != obs.EvSpan || ev.Kind != obs.SpanSolve {
			continue
		}
		checked++
		if !part.HasEdge(ev.Graph, ev.Edge) {
			return 0, fmt.Errorf("invalid trace: solve span %s targets edge %d of cluster %d, which does not exist in %s's CFG",
				ev.Span, ev.Edge, ev.Graph, name)
		}
	}
	return checked, nil
}

// renderCounts writes the event and span counts the validation saw.
func renderCounts(w io.Writer, rep *obs.CampaignReport) {
	sum, spans := rep.Summary, rep.Spans
	fmt.Fprintf(w, "valid trace: %d events, %d vectors, %d coverage points, %d bugs\n",
		sum.Events, sum.FinalVectors, sum.FinalPoints, sum.Bugs)
	printCounts(w, sum.ByType)
	fmt.Fprintf(w, "valid spans: %d spans, %d campaign roots, %d cross-rank links\n",
		spans.Spans, spans.Roots, spans.CrossRankLinks)
	printCounts(w, spans.ByKind)
	if spans.DanglingOrigins > 0 {
		fmt.Fprintf(w, "  note: %d cache-hit origins not in this trace (partial merge?)\n", spans.DanglingOrigins)
	}
	if c := rep.Chain; c != nil {
		fmt.Fprintf(w, "cross-process chain: %s (rank %d) -> %s (rank %d) +%d points\n",
			c.Solve, c.OriginRank, c.HitSolve, c.HitRank, c.Gained)
	}
}

// printCounts prints a name → count table in name order.
func printCounts(w io.Writer, counts map[string]int) {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-20s %6d\n", name, counts[name])
	}
}
