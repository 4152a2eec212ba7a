package cfg_test

// The sliced-vs-unsliced differential gate over every builtin design:
// both paths must agree on sat/unsat, every sliced model must satisfy
// the full dependency equation with absent inputs zero-filled, and no
// satisfiable target may be statically refuted. Lives outside package
// cfg because the designs package itself imports cfg.

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/designs"
	"repro/internal/logic"
	"repro/internal/sim"
)

// benchPartition elaborates a benchmark, simulates its reset, and
// builds the per-cluster graphs plus the full-register context the
// engine would pass at dispatch time.
func benchPartition(t *testing.T, b *designs.Benchmark) (*cfg.Partition, map[int]logic.BV) {
	t.Helper()
	part, _, context := buildBench(t, b, cfg.Options{MaxNodes: 48, MaxSuccessors: 8})
	return part, context
}

// buildBench is benchPartition under the given bounds; it also returns
// the input pins it added to opts (the reset held deasserted).
func buildBench(t *testing.T, b *designs.Benchmark, opts cfg.Options) (*cfg.Partition, map[string]logic.BV, map[int]logic.BV) {
	t.Helper()
	d, err := b.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := cfg.BuildTransition(d)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	info := sim.DetectClockReset(d)
	if err := s.ApplyReset(info, 2); err != nil {
		t.Fatal(err)
	}
	pin := map[string]logic.BV{}
	if info.Reset >= 0 {
		v := logic.Ones(1)
		if !info.ActiveLow {
			v = logic.Zero(1)
		}
		pin[d.Signals[info.Reset].Name] = v
	}
	reset := map[int]logic.BV{}
	for _, cr := range cfg.ControlRegisters(d) {
		reset[cr.Sig.Index] = s.Get(cr.Sig.Index)
	}
	opts.Pin = pin
	part, err := cfg.BuildPartition(d, tr, reset, opts)
	if err != nil {
		t.Fatal(err)
	}
	context := map[int]logic.BV{}
	for _, sig := range d.Registers() {
		context[sig.Index] = s.Get(sig.Index)
	}
	return part, pin, context
}

// diffOne runs one dispatch through both paths and checks agreement.
func diffOne(t *testing.T, g *cfg.Graph, cur, want, context map[int]logic.BV, seed int64) {
	t.Helper()
	full, _ := g.SolveStepStats(cur, want, context, seed)
	sliced, _, si := g.SolveStepSliced(cur, want, context, seed)
	if (full == nil) != (sliced == nil) {
		t.Fatalf("verdict mismatch: full=%v sliced=%v infeasible=%v (cur=%v want=%v)",
			full != nil, sliced != nil, si.Infeasible, cur, want)
	}
	if si.Infeasible && full != nil {
		t.Fatalf("static refutation of a satisfiable target (cur=%v want=%v)", cur, want)
	}
	if si.ConeVars > si.FullVars {
		t.Errorf("cone (%d vars) larger than full query (%d vars)", si.ConeVars, si.FullVars)
	}
	if sliced != nil && !g.CheckStep(cur, want, context, sliced.Inputs) {
		t.Errorf("sliced plan %v does not satisfy the full equation (cur=%v want=%v)",
			sliced.Inputs, cur, want)
	}
}

// sweepGraph differentials in-graph edges (sat-leaning) plus one far
// cross pair per node (unsat-leaning), bounded to keep the sweep fast.
func sweepGraph(t *testing.T, g *cfg.Graph, context map[int]logic.BV) int {
	const maxNodes, maxTargets = 6, 4
	dispatches := 0
	for ni, n := range g.Nodes {
		if ni >= maxNodes {
			break
		}
		targets := 0
		for _, eid := range n.Out {
			if targets >= maxTargets {
				break
			}
			to := g.Nodes[g.Edges[eid].To]
			diffOne(t, g, n.Vals, to.Vals, context, int64(ni)*31+7)
			targets++
			dispatches++
		}
		far := g.Nodes[(ni+len(g.Nodes)/2)%len(g.Nodes)]
		diffOne(t, g, n.Vals, far.Vals, context, int64(ni)*31+11)
		dispatches++
	}
	return dispatches
}

func TestSliceDifferentialSweepBuiltins(t *testing.T) {
	for _, b := range designs.AllBenchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			part, context := benchPartition(t, b)
			dispatches := 0
			for _, g := range part.Graphs {
				dispatches += sweepGraph(t, g, context)
			}
			if len(part.Graphs) > 0 && dispatches == 0 {
				t.Error("sweep exercised no dispatches")
			}
		})
	}
}

func TestConeSmallerThanDesign(t *testing.T) {
	// bus_arb carries several independent clusters: dispatches must not
	// drag the other clusters' state into the cone, so at least some
	// dispatch saves variables.
	b, ok := designs.FindBenchmark("bus_arb")
	if !ok {
		t.Skip("bus_arb benchmark not present")
	}
	part, context := benchPartition(t, b)
	saved := false
	for _, g := range part.Graphs {
		for _, n := range g.Nodes[:1] {
			for _, eid := range n.Out {
				to := g.Nodes[g.Edges[eid].To]
				if _, _, si := g.SolveStepSliced(n.Vals, to.Vals, context, 5); si.FullVars > si.ConeVars {
					saved = true
				}
			}
		}
	}
	if !saved {
		t.Error("no dispatch on bus_arb saved any variables")
	}
}
