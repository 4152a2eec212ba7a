package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// solve and apply build solve and plan_apply spans for ledger tests.
func solve(worker, graph, edge int, outcome string, clauses int, conflicts int64, cache string) Event {
	return Event{Type: EvSpan, Kind: SpanSolve, Worker: worker, Graph: graph, Edge: edge,
		Outcome: outcome, Clauses: clauses, Conflicts: conflicts, Cache: cache}
}

func apply(worker, graph, edge, gained int) Event {
	return Event{Type: EvSpan, Kind: SpanPlanApply, Worker: worker, Graph: graph, Edge: edge, Gained: gained}
}

// frame wraps a lane's events in its campaign_start / campaign_end.
func frame(worker int, sim []SimEntry, evs ...Event) []Event {
	out := []Event{{Type: EvCampaignStart, Worker: worker}}
	out = append(out, evs...)
	return append(out, Event{Type: EvCampaignEnd, Worker: worker, Sim: sim})
}

// mustLedger folds a schema-valid trace into its cost ledger. The
// spans here carry no IDs, so the fold runs without BuildCampaignReport's
// span check.
func mustLedger(t *testing.T, events []Event) *CostLedger {
	t.Helper()
	if _, err := ValidateEvents(events); err != nil {
		t.Fatal(err)
	}
	return newCostLedger(foldLanes(events))
}

// TestSolverLedgerAccumulation checks the per-target arithmetic: the
// hit/miss split, the hits-skip-NS rule, infeasible counting, unlocks
// credited to the applying lane's target, and the cumulative curve.
func TestSolverLedgerAccumulation(t *testing.T) {
	miss := solve(0, 0, 7, "sat", 100, 9, "miss")
	miss.Restarts, miss.SlicedVars, miss.BlastNS, miss.SolveNS = 1, 12, 50, 60
	hit := miss
	hit.Cache, hit.BlastNS, hit.SolveNS = "hit", 999, 999
	inf := solve(0, 0, 3, "unsat", 0, 0, "")
	inf.Infeasible = true
	l := mustLedger(t, frame(0, nil, miss, apply(0, 0, 7, 3), hit, apply(0, 0, 7, 0), inf))

	if len(l.Ranks) != 1 || l.Ranks[0].Rank != 0 {
		t.Fatalf("want one rank 0, got %+v", l.Ranks)
	}
	r := l.Ranks[0]
	if len(r.Solver) != 2 {
		t.Fatalf("want 2 solver entries, got %d", len(r.Solver))
	}
	// Entries are sorted by (graph, edge): (0,3) before (0,7).
	got, hot := r.Solver[0], r.Solver[1]
	if got.Edge != 3 || got.Unsat != 1 || got.Infeasible != 1 || got.Clauses != 0 {
		t.Fatalf("infeasible entry wrong: %+v", got)
	}
	want := SolverEntry{Graph: 0, Edge: 7, Dispatches: 2, Sat: 2, CacheLookups: 2,
		Clauses: 200, Conflicts: 18, Restarts: 2, SlicedVars: 24, Unlocked: 3,
		CacheHits: 1, CacheMisses: 1, BlastNS: 50, SolveNS: 60}
	if hot != want {
		t.Fatalf("hot entry:\n got %+v\nwant %+v", hot, want)
	}

	// The curve is cumulative and the plan's unlock patched the point
	// of the dispatch that produced it.
	if len(r.Curve) != 3 {
		t.Fatalf("want 3 curve points, got %d", len(r.Curve))
	}
	if p := r.Curve[0]; p != (CostPoint{Dispatch: 1, Clauses: 100, Conflicts: 9, Unlocked: 3}) {
		t.Fatalf("curve[0] = %+v", p)
	}
	if p := r.Curve[2]; p != (CostPoint{Dispatch: 3, Clauses: 200, Conflicts: 18, Unlocked: 3}) {
		t.Fatalf("curve[2] = %+v", p)
	}
	if l.Totals.Dispatches != 3 || l.Totals.Unlocked != 3 || l.Totals.Infeasible != 1 {
		t.Fatalf("totals wrong: %+v", l.Totals)
	}
}

// TestLedgerLaneOrderIndependence pins that a merged trace's lane
// interleaving does not matter: par emits lanes interleaved, the
// distributed coordinator re-emits them rank by rank.
func TestLedgerLaneOrderIndependence(t *testing.T) {
	lane := func(w int) []Event {
		return frame(w, []SimEntry{{Proc: "u.p0", Kind: "comb", Level: 1, Evals: uint64(100 * w)}},
			solve(w, w, 1, "sat", 10*w, 0, "miss"))
	}
	l1, l2 := lane(1), lane(2)
	head := []Event{{Type: EvCampaignStart}}
	tail := Event{Type: EvCampaignEnd}
	byRank := append(append(append(head, l1...), l2...), tail)
	var mixed []Event
	mixed = append(mixed, head...)
	for i := range l1 {
		mixed = append(mixed, l2[i], l1[i])
	}
	mixed = append(mixed, tail)

	a, err := mustLedger(t, byRank).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mustLedger(t, mixed).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("ledger depends on lane interleaving:\n%s\nvs\n%s", a, b)
	}
	l := mustLedger(t, mixed)
	if l.Workers != 2 || l.Totals.Clauses != 30 || l.Totals.Evals != 300 {
		t.Fatalf("totals wrong: workers %d, %+v", l.Workers, l.Totals)
	}
}

// TestLedgerRanksFromLanes checks the lane-to-rank mapping: worker
// lane w is rank w-1 and the campaign-level lane 0 of a multi-lane
// trace is no rank, while a single-engine trace's lane 0 is rank 0.
func TestLedgerRanksFromLanes(t *testing.T) {
	events := []Event{{Type: EvCampaignStart}}
	events = append(events, frame(2, nil, solve(2, 0, 0, "sat", 1, 0, ""))...)
	events = append(events, frame(1, nil, solve(1, 0, 0, "unsat", 1, 0, ""))...)
	events = append(events, Event{Type: EvCampaignEnd})
	l := mustLedger(t, events)
	if len(l.Ranks) != 2 || l.Ranks[0].Rank != 0 || l.Ranks[1].Rank != 1 {
		t.Fatalf("ranks not lane-ordered: %+v", l.Ranks)
	}
	if l.Ranks[0].Solver[0].Unsat != 1 || l.Ranks[1].Solver[0].Sat != 1 {
		t.Fatalf("rank contents swapped: %+v", l.Ranks)
	}

	solo := mustLedger(t, frame(0, nil, solve(0, 0, 0, "sat", 1, 0, "")))
	if len(solo.Ranks) != 1 || solo.Ranks[0].Rank != 0 || solo.Ranks[0].Solver[0].Sat != 1 {
		t.Fatalf("single-engine trace must be rank 0: %+v", solo.Ranks)
	}

	if _, err := BuildCampaignReport(events[2:]); err == nil {
		t.Error("a trace that does not open with campaign_start must be rejected")
	}
}

// TestCanonicalStripsAnnotations checks that Canonical removes exactly
// the non-deterministic fields — wall times, sampled times, the cache
// split — and nothing else.
func TestCanonicalStripsAnnotations(t *testing.T) {
	s := solve(0, 0, 0, "sat", 5, 0, "miss")
	s.BlastNS, s.SolveNS = 9, 9
	d := mustLedger(t, frame(0, []SimEntry{{Proc: "u.p0", Kind: "seq", Level: -1, Evals: 4, SampledEvals: 4, SampledNS: 77}}, s))

	c := d.Canonical()
	sim := c.Ranks[0].Sim[0]
	if sim.SampledEvals != 0 || sim.SampledNS != 0 {
		t.Errorf("sampled annotations survive: %+v", sim)
	}
	if sim.Evals != 4 || sim.Proc != "u.p0" || sim.Level != -1 {
		t.Errorf("canonical lost deterministic sim fields: %+v", sim)
	}
	sv := c.Ranks[0].Solver[0]
	if sv.CacheHits != 0 || sv.CacheMisses != 0 || sv.BlastNS != 0 || sv.SolveNS != 0 {
		t.Errorf("solver annotations survive: %+v", sv)
	}
	if sv.Clauses != 5 || sv.CacheLookups != 1 || sv.Sat != 1 {
		t.Errorf("canonical lost deterministic solver fields: %+v", sv)
	}
	// The original is untouched.
	if d.Ranks[0].Solver[0].BlastNS != 9 || d.Ranks[0].Sim[0].SampledNS != 77 {
		t.Error("Canonical mutated its receiver")
	}
}

// TestLedgerTraceRoundTrip pins that the ledger survives the JSONL
// trace: written by the tracer and read back, the events derive the
// same ledger, simulator profile included.
func TestLedgerTraceRoundTrip(t *testing.T) {
	s := solve(0, 1, 2, "sat", 3, 1, "miss")
	s.BlastNS = 40
	events := frame(0, []SimEntry{{Proc: "u.p0", Kind: "comb", Level: 2, Evals: 9, SampledEvals: 1, SampledNS: 5}},
		s, apply(0, 1, 2, 4))
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	for i := range events {
		tr.Emit(&events[i])
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	read, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustLedger(t, read), mustLedger(t, events); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the ledger:\n got %+v\nwant %+v", got, want)
	}
}
