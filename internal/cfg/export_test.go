package cfg

import (
	"repro/internal/logic"
	"repro/internal/smt"
)

// DestTerms exposes the per-register destination terms to the external
// test package.
func (g *Graph) DestTerms() map[int]*smt.Term { return g.dstTerms() }

// SolveStepSlicedFresh is SolveStepSliced with its randomness drawn from
// a freshly seeded source instead of the graph's shared draw log.
func (g *Graph) SolveStepSlicedFresh(cur, want, context map[int]logic.BV, seed int64) (*StepPlan, smt.SolveStats, SliceInfo) {
	shared := g.draws
	defer func() { g.draws = shared }()
	g.draws = &drawLog{}
	return g.SolveStepSliced(cur, want, context, seed)
}
