package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// The goldens under testdata were recorded on trace.jsonl (a profiled
// two-worker scmi_mailbox campaign at I=100/Th=2, seed 7, with its
// metrics snapshot) by the three trace commands this one replaced:
// fuzzreport's report and HTML page, fuzzprof's cost report, canonical
// ledger and flamegraph JSON, and tracecheck -metrics -bench.

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, nil, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestFixtureMatchesGoldens runs every trace output over the fixture
// and diffs each section against its golden. The cost section is
// fuzzprof's report without its treemap block.
func TestFixtureMatchesGoldens(t *testing.T) {
	dir := t.TempDir()
	htmlPath, flamePath := filepath.Join(dir, "report.html"), filepath.Join(dir, "flame.json")
	out := runArgs(t, "-metrics", "testdata/metrics.json", "-bench", "scmi_mailbox",
		"-html", htmlPath, "-flame", flamePath, "testdata/trace.jsonl")

	prof := golden(t, "fuzzprof.txt")
	from, to := strings.Index(prof, "\nsolver cost treemap"), strings.Index(prof, "\ntop solver targets")
	if from < 0 || to < from {
		t.Fatal("fuzzprof golden has no treemap block")
	}
	sections := []struct{ name, want string }{
		{"campaign report", golden(t, "fuzzreport.txt")},
		{"cost ledger", prof[:from] + prof[to:]},
		{"trace checks", golden(t, "tracecheck.txt")},
	}
	rest := out
	for i, s := range sections {
		if !strings.HasPrefix(rest, s.want) {
			t.Fatalf("%s section differs from its golden:\n got:\n%s\nwant:\n%s", s.name, rest, s.want)
		}
		rest = rest[len(s.want):]
		if i < len(sections)-1 {
			rest = strings.TrimPrefix(rest, "\n")
		}
	}
	notices := "wrote HTML report to " + htmlPath + " (4736 bytes)\nflamegraph JSON: " + flamePath + "\n"
	if rest != notices {
		t.Errorf("trailing output %q, want %q", rest, notices)
	}

	for _, f := range []struct{ path, golden string }{
		{htmlPath, "fuzzreport.html"},
		{flamePath, "fuzzprof_flame.json"},
	} {
		got, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != golden(t, f.golden) {
			t.Errorf("%s differs from its golden", f.golden)
		}
	}
	if got := runArgs(t, "-canonical", "testdata/trace.jsonl"); got != golden(t, "fuzzprof_canonical.json") {
		t.Errorf("-canonical differs from its golden:\n%s", got)
	}
}

// TestChecksRejectMismatches feeds the fixture a metrics snapshot that
// disagrees with it and a benchmark whose CFG lacks its edges.
func TestChecksRejectMismatches(t *testing.T) {
	dir := t.TempDir()
	var snap obs.StatusSnapshot
	if err := json.Unmarshal([]byte(golden(t, "metrics.json")), &snap); err != nil {
		t.Fatal(err)
	}
	snap.Metrics.Gauges["coverage_points"]++
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "metrics.json")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-metrics", bad}, "coverage_points"},
		{[]string{"-bench", "alu"}, "does not exist in alu's CFG"},
		{[]string{"-bench", "no_such_design"}, "unknown benchmark"},
	} {
		err := run(append(tc.args, "testdata/trace.jsonl"), nil, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want it to mention %q", tc.args, err, tc.want)
		}
	}
}

// sampleLedger digests a small single-engine trace: an unsat solve, a
// sat solve whose plan unlocks 5 points, an infeasible target on
// another graph, and a two-process simulator profile.
func sampleLedger(t *testing.T) *obs.CostLedger {
	t.Helper()
	span := func(id, parent, kind string) obs.Event {
		return obs.Event{Type: obs.EvSpan, Span: id, Parent: parent, Kind: kind}
	}
	unsat := span("w0.i3.s1", "w0.i3", obs.SpanSolve)
	unsat.Edge, unsat.Outcome, unsat.Clauses, unsat.Conflicts, unsat.SlicedVars = 3, "unsat", 800, 4, 100
	sat := span("w0.i3.s2", "w0.i3", obs.SpanSolve)
	sat.Edge, sat.Outcome, sat.Clauses, sat.SlicedVars, sat.Cache, sat.BlastNS = 5, "sat", 60, 7, "miss", 100
	plan := span("w0.i3.s3", "w0.i3.s2", obs.SpanPlanApply)
	plan.Edge, plan.Gained = 5, 5
	inf := span("w0.i4.s1", "w0.i4", obs.SpanSolve)
	inf.Graph, inf.Edge, inf.Outcome, inf.Infeasible = 1, 2, "unsat", true
	events := []obs.Event{
		{Type: obs.EvCampaignStart},
		span("w0", "", obs.SpanCampaign),
		span("w0.i3", "w0", obs.SpanInterval),
		unsat, sat, plan,
		span("w0.i4", "w0", obs.SpanInterval),
		inf,
		{Type: obs.EvCampaignEnd, Sim: []obs.SimEntry{
			{Proc: "regWrite", Kind: "seq", Level: -1, Evals: 2000, SampledEvals: 31, SampledNS: 9300},
			{Proc: "assign0", Kind: "comb", Level: 1, Evals: 1990},
		}},
	}
	rep, err := obs.BuildCampaignReport(events)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Ledger
}

// TestRenderReportDeterministic renders the same ledger twice and
// checks the report carries the ledger's key numbers.
func TestRenderReportDeterministic(t *testing.T) {
	d := sampleLedger(t)
	var b1, b2 bytes.Buffer
	renderLedger(&b1, d)
	renderLedger(&b2, d)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("report render is not deterministic")
	}
	out := b1.String()
	for _, want := range []string{
		"1 rank(s)", "3 solver dispatches", "1 infeasible", "5 coverage points unlocked",
		"g0  e3", "regWrite", "coverage unlocked per solver cost",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestFlameJSON checks the hierarchy invariant flamegraph consumers
// rely on: every parent's value is the sum of its children.
func TestFlameJSON(t *testing.T) {
	data, err := flameJSON(sampleLedger(t))
	if err != nil {
		t.Fatal(err)
	}
	var root flameNode
	if err := json.Unmarshal(data, &root); err != nil {
		t.Fatal(err)
	}
	var check func(n *flameNode)
	check = func(n *flameNode) {
		if len(n.Children) == 0 {
			return
		}
		var sum int64
		for _, c := range n.Children {
			sum += c.Value
			check(c)
		}
		if sum != n.Value {
			t.Errorf("node %q value %d != children sum %d", n.Name, n.Value, sum)
		}
	}
	check(&root)
	if root.Value == 0 {
		t.Error("empty flamegraph")
	}
}
