package obs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// reportFixture is a two-lane merged trace with one cross-rank chain:
// lane 1 solves (miss, +2 locally), lane 2 hits lane 1's cache entry
// and unlocks 6 more, and lane 2 also has a never-sat target.
func reportFixture() []Event {
	interval := func(id string, worker int, tns int64, vectors uint64, points int) Event {
		ev := spanEv(id, fmt.Sprintf("w%d", worker), SpanInterval, worker)
		ev.TNS, ev.Vectors, ev.Points = tns, vectors, points
		return ev
	}
	// Span records carry no timestamps here, so they sit before each
	// lane's timestamped interval spans to keep the lanes monotonic.
	events := []Event{
		{Type: EvCampaignStart},
		spanEv("w1", "", SpanCampaign, 1),
		spanEv("w1.i0.s0", "w1.i0", SpanStagnate, 1),
		spanEv("w2", "", SpanCampaign, 2),
		spanEv("w2.i0.s0", "w2.i0", SpanStagnate, 2),
	}
	miss := spanEv("w1.i0.s1", "w1.i0.s0", SpanSolve, 1)
	miss.Cache, miss.Outcome, miss.Graph, miss.Edge = "miss", "sat", 0, 3
	miss.BlastNS, miss.SolveNS, miss.Conflicts = 1000, 2000, 5
	miss.SlicedVars = 40
	missApply := spanEv("w1.i0.s2", "w1.i0.s1", SpanPlanApply, 1)
	missApply.Cache = "miss"
	missApply.Gained = 2

	hit := spanEv("w2.i0.s1", "w2.i0.s0", SpanSolve, 2)
	hit.Cache, hit.Outcome, hit.Graph, hit.Edge = "hit", "sat", 0, 3
	hit.OriginWorker, hit.OriginSpan = 1, "w1.i0.s1"
	hit.BlastNS, hit.SolveNS = 1000, 2000 // canonical replayed stats
	hitApply := spanEv("w2.i0.s2", "w2.i0.s1", SpanPlanApply, 2)
	hitApply.Cache, hitApply.OriginWorker, hitApply.OriginSpan = "hit", 1, "w1.i0.s1"
	hitApply.Gained = 6

	unsat := spanEv("w2.i0.s4", "w2.i0.s0", SpanSolve, 2)
	unsat.Outcome, unsat.Graph, unsat.Edge = "unsat", 1, 7
	unsat.Conflicts, unsat.SolveNS = 40, 900
	unsat.Infeasible = true

	events = append(events, miss, missApply, hit, hitApply, unsat,
		interval("w1.i0", 1, 100, 500, 10),
		interval("w2.i0", 2, 150, 600, 11),
		interval("w1.i1", 1, 200, 1000, 14))
	events = append(events, Event{Type: EvCampaignEnd, TNS: 300, Vectors: 1600, Points: 20,
		SlicedVars: 40, InfeasibleTargets: 1})
	return events
}

func TestBuildCampaignReport(t *testing.T) {
	r, err := BuildCampaignReport(reportFixture())
	if err != nil {
		t.Fatal(err)
	}

	// Attribution: lane 1's solve gets its local +2 plus lane 2's +6
	// (the hit resolves to it); it is the top solve.
	if len(r.TopSolves) == 0 || r.TopSolves[0].Span != "w1.i0.s1" {
		t.Fatalf("top solves = %+v", r.TopSolves)
	}
	top := r.TopSolves[0]
	if top.Unlocked != 8 || top.Reuses != 1 {
		t.Errorf("top solve unlocked %d reuses %d, want 8 and 1", top.Unlocked, top.Reuses)
	}
	if top.SlicedVars != 40 {
		t.Errorf("top solve sliced vars %d, want 40", top.SlicedVars)
	}

	// The unsat target shows up in the unsolved table, flagged as
	// statically refuted.
	if len(r.Unsolved) != 1 || r.Unsolved[0].Graph != 1 || r.Unsolved[0].Edge != 7 || r.Unsolved[0].Attempts != 1 {
		t.Errorf("unsolved = %+v", r.Unsolved)
	}
	if r.Unsolved[0].Infeasible != 1 {
		t.Errorf("unsolved infeasible count %d, want 1", r.Unsolved[0].Infeasible)
	}

	// Slicing totals come off the campaign_end record.
	if r.Slicing.SlicedVars != 40 || r.Slicing.InfeasibleTargets != 1 {
		t.Errorf("slicing summary = %+v, want {40 1}", r.Slicing)
	}

	// Per-lane breakdown: lane 2's hit costs it no solver wall time;
	// its unsat solve does.
	var lane2 *LaneBreakdown
	for i := range r.Lanes {
		if r.Lanes[i].Lane == 2 {
			lane2 = &r.Lanes[i]
		}
	}
	if lane2 == nil || lane2.Solves != 2 || lane2.CacheHits != 1 || lane2.CDCLNS != 900 {
		t.Errorf("lane 2 breakdown = %+v", lane2)
	}

	// Coverage curves: one per lane, sampled from its interval spans.
	if len(r.Curves[1]) != 2 || len(r.Curves[2]) != 1 {
		t.Errorf("curves = %+v", r.Curves)
	}

	// The cross-rank chain is reconstructed.
	if r.Chain == nil || r.Chain.Solve != "w1.i0.s1" || r.Chain.HitSolve != "w2.i0.s1" || r.Chain.Gained != 6 {
		t.Errorf("chain = %+v", r.Chain)
	}
}

func TestRenderHTMLDeterministic(t *testing.T) {
	events := reportFixture()
	render := func() []byte {
		r, err := BuildCampaignReport(events)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := RenderHTML(&buf, r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("HTML report is not byte-identical across renders of the same trace")
	}
	html := string(a)
	for _, want := range []string{
		"<!DOCTYPE html>", "<svg", "w1.i0.s1",
		"Cross-process causal chain", "Unsolved targets", "Per-rank solver time",
		"Cone-of-influence slicing removed <b>40</b>",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
}

func TestRenderTextReport(t *testing.T) {
	r, err := BuildCampaignReport(reportFixture())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderText(&buf, r)
	out := buf.String()
	for _, want := range []string{"campaign report", "top solves", "unsolved targets", "per-rank solver time", "w1.i0.s1",
		"slicing: 40 solver vars sliced away, 1 targets refuted statically"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q in:\n%s", want, out)
		}
	}
}

// FuzzTraceReport feeds arbitrary bytes through the whole trace digest.
// A trace file is input from outside the program: every input must
// either render or be rejected with an error, never panic.
func FuzzTraceReport(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("..", "..", "cmd", "fuzzreport", "testdata", "trace.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	miss := solve(1, 0, 7, "sat", 100, 9, "miss")
	miss.Span, miss.Parent = "w1.i0.s1", "w1.i0"
	plan := apply(1, 0, 7, 3)
	plan.Span, plan.Parent = "w1.i0.s2", "w1.i0.s1"
	for _, events := range [][]Event{
		reportFixture(),
		frame(1, []SimEntry{{Proc: "u.p0", Kind: "comb", Level: 1, Evals: 9}},
			spanEv("w1", "", SpanCampaign, 1), spanEv("w1.i0", "w1", SpanInterval, 1), miss, plan),
	} {
		var buf bytes.Buffer
		tr := NewJSONLTracer(&buf)
		for i := range events {
			tr.Emit(&events[i])
		}
		if err := tr.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		r, err := BuildCampaignReport(events)
		if err != nil {
			return
		}
		RenderText(io.Discard, r)
		if err := RenderHTML(io.Discard, r); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Ledger.Canonical().MarshalIndent(); err != nil {
			t.Fatal(err)
		}
	})
}
