package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// sampleLedger derives a ledger from a small single-engine trace: an
// unsat solve, a sat solve whose plan unlocks 5 points, an infeasible
// target on another graph, and a two-process simulator profile.
func sampleLedger(t *testing.T) *obs.CostLedger {
	t.Helper()
	events := []obs.Event{
		{Type: obs.EvCampaignStart},
		{Type: obs.EvSpan, Kind: obs.SpanSolve, Span: "w0.i3.s1", Graph: 0, Edge: 3, Outcome: "unsat", Clauses: 800, Conflicts: 4, SlicedVars: 100},
		{Type: obs.EvSpan, Kind: obs.SpanSolve, Span: "w0.i3.s2", Graph: 0, Edge: 5, Outcome: "sat", Clauses: 60, SlicedVars: 7, Cache: "miss", BlastNS: 100},
		{Type: obs.EvSpan, Kind: obs.SpanPlanApply, Span: "w0.i3.s3", Parent: "w0.i3.s2", Graph: 0, Edge: 5, Gained: 5},
		{Type: obs.EvSpan, Kind: obs.SpanSolve, Span: "w0.i4.s1", Graph: 1, Edge: 2, Outcome: "unsat", Infeasible: true},
		{Type: obs.EvCampaignEnd, Sim: []obs.SimEntry{
			{Proc: "regWrite", Kind: "seq", Level: -1, Evals: 2000, SampledEvals: 31, SampledNS: 9300},
			{Proc: "assign0", Kind: "comb", Level: 1, Evals: 1990},
		}},
	}
	l, err := obs.BuildCostLedger(events)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestTreemapLayout pins the layout invariants: tiles are in-bounds,
// non-overlapping, tile the whole rectangle, and the layout is a pure
// function of the weights.
func TestTreemapLayout(t *testing.T) {
	items := []item{
		{label: "a", weight: 800}, {label: "b", weight: 60},
		{label: "c", weight: 30}, {label: "d", weight: 1},
	}
	const w, h = 40, 10
	cells := layoutTreemap(items, w, h)
	if len(cells) != len(items) {
		t.Fatalf("laid out %d of %d items", len(cells), len(items))
	}
	covered := map[[2]int]string{}
	area := 0
	for _, c := range cells {
		if c.x < 0 || c.y < 0 || c.x+c.w > w || c.y+c.h > h || c.w < 1 || c.h < 1 {
			t.Fatalf("tile out of bounds: %+v", c)
		}
		area += c.w * c.h
		for dx := 0; dx < c.w; dx++ {
			for dy := 0; dy < c.h; dy++ {
				k := [2]int{c.x + dx, c.y + dy}
				if prev, ok := covered[k]; ok {
					t.Fatalf("tiles %q and %q overlap at %v", prev, c.label, k)
				}
				covered[k] = c.label
			}
		}
	}
	if area != w*h {
		t.Fatalf("tiles cover %d cells, want %d", area, w*h)
	}

	again := layoutTreemap(items, w, h)
	r1, r2 := renderTreemap(cells, w, h), renderTreemap(again, w, h)
	if r1 != r2 {
		t.Fatal("treemap render is not deterministic")
	}
}

// TestRenderReportDeterministic renders the same ledger twice and
// checks the report carries the ledger's key numbers.
func TestRenderReportDeterministic(t *testing.T) {
	d := sampleLedger(t)
	var b1, b2 bytes.Buffer
	renderReport(&b1, d, 10, 72)
	renderReport(&b2, d, 10, 72)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("report render is not deterministic")
	}
	out := b1.String()
	for _, want := range []string{
		"1 rank(s)", "3 solver dispatches", "1 infeasible", "5 coverage points unlocked",
		"g0:e3", "regWrite", "coverage unlocked per solver cost",
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
