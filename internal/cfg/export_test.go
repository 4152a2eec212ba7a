package cfg

import "repro/internal/smt"

// DestTerms exposes the per-register destination terms to the external
// test package.
func (g *Graph) DestTerms() map[int]*smt.Term { return g.dstTerms() }
