// Command fuzzreport turns a SymbFuzz campaign trace (the JSONL stream
// written by symbfuzz -trace, or a coordinator's merged multi-rank
// trace) into a campaign report: coverage over time per rank, the top
// solves ranked by coverage unlocked (counting cross-rank plan
// reuses), the unsolved-target table, the per-rank solver time
// breakdown, and — when the trace spans processes — the reconstructed
// cross-process causal chain.
//
// The terminal report goes to stdout; -html writes a self-contained
// HTML file (inline CSS + SVG, no external assets) whose bytes depend
// only on the trace, so re-rendering the same trace is byte-identical.
//
// Usage:
//
//	fuzzreport trace.jsonl
//	fuzzreport -html report.html trace.jsonl
//	symbfuzz ... -trace /dev/stdout | fuzzreport -
//	fuzzreport -fleet [-html rollup.html] fleet.json
//
// With -fleet the input is not a trace but the whole-fleet rollup
// JSON from `fuzzctl fleet -out` (the /v1/fleet document); the report
// is then one row per campaign with its admission/queue telemetry.
//
// Exit status 0 on a valid trace, 1 otherwise.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

func main() {
	htmlOut := flag.String("html", "", "write a self-contained HTML report to this path")
	fleetIn := flag.Bool("fleet", false, "input is a fleet rollup JSON (from fuzzctl fleet -out), not a trace")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fuzzreport [-fleet] [-html report.html] <trace.jsonl | fleet.json | ->")
		os.Exit(1)
	}

	var data []byte
	var err error
	if flag.Arg(0) == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		fail(err)
	}

	if *fleetIn {
		if err := runFleetReport(data, *htmlOut); err != nil {
			fail(err)
		}
		return
	}

	events, err := obs.ReadEvents(bytes.NewReader(data))
	if err != nil {
		fail(fmt.Errorf("invalid trace: %w", err))
	}
	rep, err := obs.BuildCampaignReport(events)
	if err != nil {
		fail(fmt.Errorf("invalid trace: %w", err))
	}

	obs.RenderText(os.Stdout, rep)

	if *htmlOut != "" {
		var buf bytes.Buffer
		if err := obs.RenderHTML(&buf, rep); err != nil {
			fail(err)
		}
		if err := os.WriteFile(*htmlOut, buf.Bytes(), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote HTML report to %s (%d bytes)\n", *htmlOut, buf.Len())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fuzzreport:", err)
	os.Exit(1)
}
