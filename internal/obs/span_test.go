package obs

import (
	"bytes"
	"strings"
	"testing"
)

// spanEv is a shorthand constructor for span-event literals.
func spanEv(id, parent, kind string, worker int) Event {
	return Event{Type: EvSpan, Span: id, Parent: parent, Kind: kind, Worker: worker}
}

func TestValidateSpansAcceptsWellFormedTree(t *testing.T) {
	events := []Event{
		spanEv("w1", "", SpanCampaign, 1),
		spanEv("w1.i0", "w1", SpanInterval, 1),
		spanEv("w1.i0.s0", "w1.i0", SpanStagnate, 1),
		spanEv("w1.i0.s1", "w1.i0.s0", SpanSolve, 1),
		spanEv("w1.i0.s2", "w1.i0.s1", SpanPlanApply, 1),
		spanEv("w1:coverage_stall", "w1", SpanAlert, 1),
	}
	sum, err := ValidateSpans(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Spans != 6 || sum.Roots != 1 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.ByKind[SpanSolve] != 1 || sum.ByKind[SpanPlanApply] != 1 {
		t.Errorf("by-kind = %v", sum.ByKind)
	}
}

func TestValidateSpansRejections(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		want   string
	}{
		{
			"missing parent",
			[]Event{spanEv("w1", "", SpanCampaign, 1), spanEv("w1.i0", "w1.nope", SpanInterval, 1)},
			"does not exist",
		},
		{
			"duplicate id",
			[]Event{spanEv("w1", "", SpanCampaign, 1), spanEv("w1", "", SpanCampaign, 1)},
			"duplicate",
		},
		{
			"unknown kind",
			[]Event{{Type: EvSpan, Span: "w1", Kind: "weird"}},
			"unknown kind",
		},
		{
			"empty id",
			[]Event{{Type: EvSpan, Kind: SpanCampaign}},
			"empty id",
		},
		{
			"illegal parent kind",
			[]Event{
				spanEv("w1", "", SpanCampaign, 1),
				spanEv("w1.i0", "w1", SpanInterval, 1),
				// plan_apply must hang off a solve, not an interval
				spanEv("w1.i0.s0", "w1.i0", SpanPlanApply, 1),
			},
			"cannot be a child",
		},
		{
			"campaign with parent",
			[]Event{
				spanEv("w1", "", SpanCampaign, 1),
				spanEv("w2", "w1", SpanCampaign, 2),
			},
			"has parent",
		},
		{
			// The kind taxonomy is a DAG, so a parent cycle necessarily
			// contains a kind-illegal edge and is rejected there (the
			// explicit cycle walk in ValidateSpans is defense in depth
			// for future kinds).
			"parent cycle",
			[]Event{
				spanEv("a", "b", SpanInterval, 1),
				spanEv("b", "a", SpanInterval, 1),
			},
			"cannot be a child",
		},
	}
	for _, tc := range cases {
		if _, err := ValidateSpans(tc.events); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateSpansOriginAccounting(t *testing.T) {
	events := []Event{
		spanEv("w1", "", SpanCampaign, 1),
		spanEv("w1.i0", "w1", SpanInterval, 1),
		spanEv("w1.i0.s0", "w1.i0", SpanStagnate, 1),
		spanEv("w2", "", SpanCampaign, 2),
		spanEv("w2.i0", "w2", SpanInterval, 2),
		spanEv("w2.i0.s0", "w2.i0", SpanStagnate, 2),
	}
	miss := spanEv("w1.i0.s1", "w1.i0.s0", SpanSolve, 1)
	miss.Cache = "miss"
	hit := spanEv("w2.i0.s1", "w2.i0.s0", SpanSolve, 2)
	hit.Cache, hit.OriginWorker, hit.OriginSpan = "hit", 1, "w1.i0.s1"
	dangling := spanEv("w2.i0.s2", "w2.i0.s0", SpanSolve, 2)
	dangling.Cache, dangling.OriginWorker, dangling.OriginSpan = "hit", 3, "w3.i9.s9"
	events = append(events, miss, hit, dangling)

	sum, err := ValidateSpans(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.CrossRankLinks != 1 {
		t.Errorf("cross-rank links = %d, want 1", sum.CrossRankLinks)
	}
	if sum.DanglingOrigins != 1 {
		t.Errorf("dangling origins = %d, want 1", sum.DanglingOrigins)
	}
}

// TestObserverSpansFormValidTree drives the observer through a full
// campaign shape and checks the emitted spans validate and link the
// way the engine phases imply.
func TestObserverSpansFormValidTree(t *testing.T) {
	var buf bytes.Buffer
	o := New(Options{Tracer: NewJSONLTracer(&buf), Now: fakeClock()})

	o.CampaignStart(0, 0)
	o.IntervalStart(0, 0)
	o.IntervalEnd(100, 5, 1500)
	o.Stagnation(100, 5)
	span := o.SolverDispatch(0, 3, 100, 5, SolveStats{Outcome: "sat", Restarts: 1}, CacheRef{State: "miss"})
	if span == "" {
		t.Fatal("SolverDispatch returned no span ID with tracing on")
	}
	o.PlanApplied(0, 3, 120, 9, 4, CacheRef{State: "miss"})
	o.GuidanceEnd(120, 9)
	o.IntervalStart(120, 9)
	o.IntervalEnd(220, 9, 1400)
	o.CampaignEnd(220, 9)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateSpans(events)
	if err != nil {
		t.Fatalf("observer emitted invalid spans: %v", err)
	}
	want := map[string]int{
		SpanCampaign: 1, SpanInterval: 2, SpanStagnate: 1, SpanSolve: 1, SpanPlanApply: 1,
	}
	for k, n := range want {
		if sum.ByKind[k] != n {
			t.Errorf("%s spans = %d, want %d (all: %v)", k, sum.ByKind[k], n, sum.ByKind)
		}
	}

	// The IDs are deterministic functions of (lane, interval, seq).
	byID := map[string]Event{}
	for _, ev := range events {
		if ev.Type == EvSpan {
			byID[ev.Span] = ev
		}
	}
	solve := byID[span]
	if solve.Kind != SpanSolve || solve.Cache != "miss" || solve.Restarts != 1 || solve.Edge != 3 {
		t.Errorf("solve span = %+v", solve)
	}
	stag := byID[solve.Parent]
	if stag.Kind != SpanStagnate {
		t.Errorf("solve parent kind = %q, want stagnation", stag.Kind)
	}
	var pa *Event
	for i := range events {
		if events[i].Kind == SpanPlanApply {
			pa = &events[i]
		}
	}
	if pa == nil || pa.Gained != 4 || pa.Parent != span {
		t.Fatalf("plan_apply span = %+v, want Gained 4 under solve %s", pa, span)
	}
	// The interval span carries the engine-measured interval time and
	// the vectors the interval applied.
	if iv := byID["w0.i1"]; iv.Kind != SpanInterval || iv.DurNS != 1400 || iv.Count != 100 {
		t.Errorf("second interval span = %+v, want dur 1400, count 100", iv)
	}

	// The trace itself still validates (campaign_end stays last).
	if _, err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("trace with spans fails schema: %v", err)
	}
}

func TestFindCrossRankChain(t *testing.T) {
	events := []Event{
		spanEv("w1", "", SpanCampaign, 1),
		spanEv("w1.i0", "w1", SpanInterval, 1),
		spanEv("w1.i0.s0", "w1.i0", SpanStagnate, 1),
		spanEv("w2", "", SpanCampaign, 2),
		spanEv("w2.i0", "w2", SpanInterval, 2),
		spanEv("w2.i0.s0", "w2.i0", SpanStagnate, 2),
	}
	miss := spanEv("w1.i0.s1", "w1.i0.s0", SpanSolve, 1)
	miss.Cache = "miss"
	hit := spanEv("w2.i0.s1", "w2.i0.s0", SpanSolve, 2)
	hit.Cache, hit.OriginWorker, hit.OriginSpan = "hit", 1, "w1.i0.s1"
	pa := spanEv("w2.i0.s2", "w2.i0.s1", SpanPlanApply, 2)
	pa.Gained = 6
	events = append(events, miss, hit, pa)

	chain, ok := FindCrossRankChain(events)
	if !ok {
		t.Fatal("no chain found in a trace that contains one")
	}
	want := CausalChain{
		Stagnation: "w1.i0.s0", Solve: "w1.i0.s1", HitSolve: "w2.i0.s1",
		PlanApply: "w2.i0.s2", OriginRank: 1, HitRank: 2, Gained: 6,
	}
	if *chain != want {
		t.Errorf("chain = %+v, want %+v", *chain, want)
	}

	// Same-rank hits must not count as cross-process chains.
	if _, ok := FindCrossRankChain(events[:len(events)-3]); ok {
		t.Error("chain found without solve/hit/apply spans")
	}
	// A hit whose plan was never applied closes no chain.
	if _, ok := FindCrossRankChain(events[:len(events)-1]); ok {
		t.Error("chain found without a plan_apply span")
	}
}
