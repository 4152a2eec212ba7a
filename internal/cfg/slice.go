package cfg

import (
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/logic"
	"repro/internal/smt"
)

// SliceInfo reports what cone-of-influence slicing did to one dispatch.
type SliceInfo struct {
	// FullVars is the variable count of the unsliced query for the same
	// dispatch; ConeVars is the count actually declared after partial
	// evaluation. FullVars-ConeVars is the per-dispatch saving.
	FullVars int
	ConeVars int
	// Infeasible reports that the target was refuted statically (the
	// folded constraint is the constant false, or the abstract value of
	// the destination excludes the wanted valuation) — no solver was run.
	Infeasible bool
}

// sliceState is the per-graph cache backing sliced dispatches: the
// destination terms (shared with the unsliced path), the fixed part of
// the unsliced query's variable set, and the bindings those terms can
// see, resolved once per cluster so a dispatch builds constants only
// for the registers its cone reads. The remaining fields are scratch
// that every dispatch clears and refills instead of reallocating.
type sliceState struct {
	dst   map[int]*smt.Term
	fixed map[string]bool
	// refs are the current-value variables of sequential registers
	// that the destination terms read.
	refs []sliceRef
	// extra lists the out-of-cluster sequential registers whose
	// current-value variable the unsliced query adds to fixed when the
	// context pins them (counted into FullVars, never built).
	extra []int
	// bind holds the pinned inputs the terms read, bound once (pins
	// never change), plus the current dispatch's refs.
	bind    map[string]*smt.Term
	memo    map[*smt.Term]*smt.Term
	absMemo map[*smt.Term]analysis.Value
	cone    map[string]int
	asserts []*smt.Term
	names   []string
}

// sliceRef is one current-value variable a dispatch binds: to the
// cluster's current valuation (zero when absent) for an in-cluster
// register, or to the context's value when present otherwise.
type sliceRef struct {
	name      string
	idx       int
	inCluster bool
}

// dstTerms returns the per-register destination terms, built once per
// graph (construction rebuilt them per node before).
func (g *Graph) dstTerms() map[int]*smt.Term {
	g.sliceInit()
	return g.slice.dst
}

func (g *Graph) sliceInit() {
	if g.slice != nil {
		return
	}
	st := &sliceState{
		dst:     g.destTerms(),
		fixed:   map[string]bool{},
		bind:    map[string]*smt.Term{},
		memo:    map[*smt.Term]*smt.Term{},
		absMemo: map[*smt.Term]analysis.Value{},
		cone:    map[string]int{},
	}
	widths := map[string]int{}
	inCluster := map[int]bool{}
	for _, cr := range g.Regs {
		analysis.CollectVars(st.dst[cr.Sig.Index], widths)
		st.fixed[dstVar(cr.Sig)] = true
		if cr.Sig.IsReg {
			st.fixed[CurVar+cr.Sig.Name] = true
		}
		inCluster[cr.Sig.Index] = true
	}
	for name := range widths {
		st.fixed[name] = true
	}
	for name, v := range g.opts.Pin {
		st.fixed[InVar+name] = true
		if _, read := widths[InVar+name]; read {
			st.bind[InVar+name] = ConstBV(v)
		}
	}
	read := map[int]string{}
	for name := range widths {
		if reg, ok := strings.CutPrefix(name, CurVar); ok {
			if sig := g.Design.ByName[reg]; sig != nil && sig.IsReg {
				read[sig.Index] = name
			}
		}
	}
	for _, sig := range g.Design.Signals {
		if !sig.IsReg {
			continue
		}
		if name, ok := read[sig.Index]; ok {
			st.refs = append(st.refs, sliceRef{name: name, idx: sig.Index, inCluster: inCluster[sig.Index]})
		} else if !inCluster[sig.Index] {
			st.extra = append(st.extra, sig.Index)
		}
	}
	g.slice = st
}

// CheckStep reports whether the FULL (unsliced) dependency equation
// admits the given input assignment for a cur -> want dispatch:
// unpinned inputs absent from inputs are zero-filled, exactly as plan
// application does. It is the differential oracle for sliced models —
// a plan solved over the cone must still check out here.
func (g *Graph) CheckStep(cur, want, context map[int]logic.BV, inputs map[string]logic.BV) bool {
	node := &Node{Vals: map[int]logic.BV{}}
	for _, cr := range g.Regs {
		if v, ok := cur[cr.Sig.Index]; ok {
			node.Vals[cr.Sig.Index] = canonical(v)
		} else {
			node.Vals[cr.Sig.Index] = logic.Zero(cr.Sig.Width)
		}
	}
	s := g.newSolverFor(node)
	inCluster := map[int]bool{}
	for _, cr := range g.Regs {
		inCluster[cr.Sig.Index] = true
	}
	ctxIdx := make([]int, 0, len(context))
	for idx := range context {
		if !inCluster[idx] && g.Design.Signals[idx].IsReg {
			ctxIdx = append(ctxIdx, idx)
		}
	}
	sort.Ints(ctxIdx)
	for _, idx := range ctxIdx {
		sig := g.Design.Signals[idx]
		s.Assert(smt.Eq(s.Var(CurVar+sig.Name, sig.Width), ConstBV(context[idx])))
	}
	for _, in := range g.Design.InputSignals() {
		if _, pinned := g.opts.Pin[in.Name]; pinned {
			continue
		}
		v, ok := inputs[in.Name]
		if !ok {
			v = logic.Zero(in.Width)
		}
		s.Assert(smt.Eq(s.Var(InVar+in.Name, in.Width), ConstBV(v)))
	}
	for _, cr := range g.Regs {
		if v, ok := want[cr.Sig.Index]; ok {
			s.Assert(smt.Eq(s.Var(dstVar(cr.Sig), cr.Sig.Width), ConstBV(v)))
		}
	}
	return s.Solve() == smt.Sat
}

// SolveStepSliced is SolveStepStats with cone-of-influence slicing: the
// dispatch's concrete bindings (current cluster valuation, out-of-cluster
// context registers, pinned inputs) are folded into the destination
// terms through the solver's constant-folding constructors, so only the
// target's surviving cone is declared and bit-blasted. Folding is
// exactly semantics-preserving, so the sliced query is equisatisfiable
// with the unsliced one and any model extends to a full model with the
// absent inputs zero-filled (which is what plan application does).
// Targets refuted during folding — a constraint collapsing to constant
// false, or an abstract destination value excluding the wanted
// valuation — are reported infeasible without running the solver.
func (g *Graph) SolveStepSliced(cur, want, context map[int]logic.BV, seed int64) (*StepPlan, smt.SolveStats, SliceInfo) {
	g.sliceInit()
	st := g.slice
	for _, r := range st.refs {
		var v logic.BV
		var ok bool
		if r.inCluster {
			if v, ok = cur[r.idx]; !ok {
				v = logic.Zero(g.Design.Signals[r.idx].Width)
			}
		} else if v, ok = context[r.idx]; !ok {
			delete(st.bind, r.name)
			continue
		}
		st.bind[r.name] = ConstBV(v)
	}
	si := SliceInfo{FullVars: len(st.fixed)}
	for _, idx := range st.extra {
		if _, ok := context[idx]; ok {
			si.FullVars++
		}
	}

	clear(st.memo)
	clear(st.absMemo)
	clear(st.cone)
	asserts := st.asserts[:0]
	for _, cr := range g.Regs {
		v, ok := want[cr.Sig.Index]
		if !ok {
			continue
		}
		folded := analysis.FoldTerm(st.dst[cr.Sig.Index], st.bind, st.memo)
		a := smt.Eq(folded, ConstBV(v))
		switch {
		case analysis.IsConstTrue(a):
			continue
		case analysis.IsConstFalse(a):
			si.Infeasible = true
		default:
			if c, ok := analysis.EvalTerm(a, analysis.TopTermEnv, st.absMemo).IsConst(); ok && c == 0 {
				si.Infeasible = true
			}
			asserts = append(asserts, a)
		}
	}
	st.asserts = asserts
	for _, a := range asserts {
		analysis.CollectVars(a, st.cone)
	}
	si.ConeVars = len(st.cone)
	if si.Infeasible {
		return nil, smt.SolveStats{Outcome: smt.Unsat}, si
	}

	s := smt.NewSolver()
	if seed != 0 {
		s.SetRand(g.newRand(seed))
	}
	// Declare the cone in sorted name order: variable numbering fixes
	// which of several satisfying models a seeded solve returns, so it
	// must not depend on map iteration.
	names := st.names[:0]
	for name := range st.cone {
		names = append(names, name)
	}
	sort.Strings(names)
	st.names = names
	for _, name := range names {
		s.Var(name, st.cone[name])
	}
	for _, a := range asserts {
		s.Assert(a)
		g.Constraints++
	}
	if s.Solve() != smt.Sat {
		return nil, s.LastStats(), si
	}
	m := s.Model()
	plan := &StepPlan{Inputs: map[string]logic.BV{}}
	for name, v := range m {
		if strings.HasPrefix(name, InVar) {
			plan.Inputs[name[len(InVar):]] = v
		}
	}
	return plan, s.LastStats(), si
}
