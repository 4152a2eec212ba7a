package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/designs"
	"repro/internal/elab"
)

// TestLevelizedOrderIsTopological is the property behind the cost
// profiler's simulator ledger, which places each combinational process
// at the level of its deepest written signal: for every builtin design,
// the levelized order of the register-cut dependency graph must be a
// valid topological order of the combinational subgraph. Registers and
// inputs cut the graph at level 0, so a combinationally written signal
// must appear strictly after every combinationally written signal it
// reads, and its level must be exactly one above its deepest
// dependency. The builtin designs are all combinationally acyclic, so
// the check is strict — no cycle-cut exemptions.
func TestLevelizedOrderIsTopological(t *testing.T) {
	for _, b := range designs.AllBenchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			d, err := b.Elaborate()
			if err != nil {
				t.Fatalf("elaborate: %v", err)
			}
			g := analysis.BuildDepGraph(d)

			// The order covers exactly the combinationally written
			// signals, each once.
			if len(g.Order) != len(g.Comb) {
				t.Fatalf("order has %d entries for %d comb signals", len(g.Order), len(g.Comb))
			}
			pos := make(map[int]int, len(g.Order))
			for i, s := range g.Order {
				if _, dup := pos[s]; dup {
					t.Fatalf("signal %s appears twice in the order", d.Signals[s].Name)
				}
				if _, ok := g.Comb[s]; !ok {
					t.Fatalf("order contains %s, which is not comb-written", d.Signals[s].Name)
				}
				pos[s] = i
			}

			for _, s := range g.Order {
				deepest := 0
				for _, dep := range g.Comb[s] {
					if dep == s {
						// A partial assignment is a read-modify-write
						// of its own root signal: an intra-process
						// data dependency, not a scheduling edge. The
						// levelizer cuts the self-loop.
						continue
					}
					if _, combWritten := g.Comb[dep]; !combWritten {
						// Register, input, or unwritten: the cut
						// frontier, settled before any comb eval.
						if g.Level[dep] != 0 {
							t.Errorf("cut signal %s has level %d, want 0",
								d.Signals[dep].Name, g.Level[dep])
						}
						continue
					}
					if pos[dep] >= pos[s] {
						t.Errorf("%s (pos %d) reads %s (pos %d): not topological",
							d.Signals[s].Name, pos[s], d.Signals[dep].Name, pos[dep])
					}
					if g.Level[dep] >= g.Level[s] {
						t.Errorf("%s (level %d) reads %s (level %d): level not increasing",
							d.Signals[s].Name, g.Level[s], d.Signals[dep].Name, g.Level[dep])
					}
					if g.Level[dep] > deepest {
						deepest = g.Level[dep]
					}
				}
				if g.Level[s] != deepest+1 {
					t.Errorf("%s has level %d, want %d (one above deepest dependency)",
						d.Signals[s].Name, g.Level[s], deepest+1)
				}
			}

			// Sequential next-state reads stay within the design: the
			// register cut is well formed.
			for reg, deps := range g.Next {
				if reg < 0 || reg >= len(d.Signals) {
					t.Fatalf("next-state map references signal %d outside the design", reg)
				}
				for _, dep := range deps {
					if dep < 0 || dep >= len(d.Signals) {
						t.Fatalf("register %s reads signal %d outside the design",
							d.Signals[reg].Name, dep)
					}
				}
			}
			_ = elab.ProcSeq // document the register cut referenced above
		})
	}
}
