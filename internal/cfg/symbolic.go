// Package cfg implements SymbFuzz's design analyses (§4.4–§4.6): control
// register identification, dependency-equation construction by symbolic
// execution of the elaborated IR, the control-flow graph whose nodes are
// control-register valuations and whose edges are state transitions, and
// checkpoint marking (nodes with fan-out >= 3).
package cfg

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/smt"
)

// Naming conventions for symbolic variables.
const (
	// InVar prefixes the primary-input variables of a transition step.
	InVar = "in."
	// CurVar prefixes current-state register variables.
	CurVar = "cur."
	// HoldVar prefixes held (latched) combinational values.
	HoldVar = "hold."
	// FreeVar prefixes unconstrained values (memory reads, X constants).
	FreeVar = "free."
)

// SymEnv maps signal indices to their symbolic values during execution.
type SymEnv map[int]*smt.Term

func (e SymEnv) clone() SymEnv {
	out := make(SymEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// symbolicEvaluator executes compiled IR over SMT terms instead of
// four-state values, producing dependency equations: every signal's
// value expressed as a function of inputs and current registers.
type symbolicEvaluator struct {
	d       *elab.Design
	freshID int
	// eqCount tallies generated equations (assignments symbolically
	// executed), reported in Table 3.
	eqCount int
}

func (sy *symbolicEvaluator) fresh(width int, why string) *smt.Term {
	sy.freshID++
	return smt.Var(fmt.Sprintf("%s%s.%d", FreeVar, why, sy.freshID), width)
}

// evalExpr converts an IR expression to a term under env. Reads of
// signals missing from env get hold variables (their value is
// unconstrained state held from earlier cycles).
func (sy *symbolicEvaluator) evalExpr(env SymEnv, x elab.Expr) *smt.Term {
	return analysis.Lower(x, func(idx, w int) *smt.Term {
		return sy.readFor(env, env, idx, w)
	}, sy.fresh)
}

// assign writes a term to a target within env (blocking semantics; the
// caller routes non-blocking writes through a separate env).
func (sy *symbolicEvaluator) assign(env SymEnv, tgt elab.Target, val *smt.Term, readEnv SymEnv) {
	sy.eqCount++
	switch t := tgt.(type) {
	case elab.TSig:
		env[t.Idx] = smt.ZExt(val, t.W)
	case elab.TRange:
		cur := sy.readFor(readEnv, env, t.Idx, t.W)
		v := smt.ZExt(val, t.Hi-t.Lo+1)
		var parts []*smt.Term
		if t.Hi < t.W-1 {
			parts = append(parts, smt.Extract(cur, t.W-1, t.Hi+1))
		}
		parts = append(parts, v)
		if t.Lo > 0 {
			parts = append(parts, smt.Extract(cur, t.Lo-1, 0))
		}
		env[t.Idx] = smt.Concat(parts...)
	case elab.TBit:
		cur := sy.readFor(readEnv, env, t.Idx, t.W)
		idx := sy.evalExpr(readEnv, t.BitE)
		// An out-of-range index shifts both masks to zero: the write is
		// dropped, as in the interpreter.
		one := analysis.Shift(elab.OpShl, smt.ZExt(smt.ConstUint(1, 1), t.W), idx)
		bit := smt.ZExt(smt.Extract(val, 0, 0), t.W)
		setv := analysis.Shift(elab.OpShl, bit, idx)
		env[t.Idx] = smt.Or(smt.And(cur, smt.Not(one)), setv)
	case elab.TCat:
		v := smt.ZExt(val, t.W)
		hi := t.W - 1
		for _, p := range t.Parts {
			lo := hi - p.TWidth() + 1
			sy.assign(env, p, smt.Extract(v, hi, lo), readEnv)
			hi = lo - 1
		}
	case elab.TMem:
		// Memory writes do not feed the control-state transition.
	}
}

// readFor reads a signal's current term for read-modify-write targets.
func (sy *symbolicEvaluator) readFor(readEnv, env SymEnv, idx, w int) *smt.Term {
	if t, ok := env[idx]; ok {
		return t
	}
	if t, ok := readEnv[idx]; ok {
		return t
	}
	t := smt.Var(HoldVar+sy.d.Signals[idx].Name, w)
	readEnv[idx] = t
	return t
}

// execStmts symbolically executes statements. env carries blocking
// values; nbEnv collects non-blocking (registered) updates.
func (sy *symbolicEvaluator) execStmts(env, nbEnv SymEnv, stmts []elab.Stmt) {
	for _, s := range stmts {
		switch n := s.(type) {
		case elab.SAssign:
			val := sy.evalExpr(env, n.RHS)
			if n.NB {
				sy.assign(nbEnv, n.LHS, val, env)
			} else {
				sy.assign(env, n.LHS, val, env)
			}
		case elab.SIf:
			cond := smt.RedOr(sy.evalExpr(env, n.Cond))
			thenEnv, thenNB := env.clone(), nbEnv.clone()
			sy.execStmts(thenEnv, thenNB, n.Then)
			elseEnv, elseNB := env.clone(), nbEnv.clone()
			sy.execStmts(elseEnv, elseNB, n.Else)
			sy.mergeEnv(env, cond, thenEnv, elseEnv, sy.holdFallback(env))
			sy.mergeEnv(nbEnv, cond, thenNB, elseNB, sy.holdFallback(env))
		case elab.SCase:
			subj := sy.evalExpr(env, n.Subject)
			lower := func(x elab.Expr) *smt.Term { return sy.evalExpr(env, x) }
			// Build the arm conditions, then fold from the default up.
			type arm struct {
				cond *smt.Term
				body []elab.Stmt
			}
			var arms []arm
			for _, item := range n.Items {
				arms = append(arms, arm{cond: analysis.CaseMatch(subj, item.Matches, lower), body: item.Body})
			}
			// Execute every arm against a copy, then chain ite merges.
			curEnv, curNB := env.clone(), nbEnv.clone()
			sy.execStmts(curEnv, curNB, n.Default)
			for i := len(arms) - 1; i >= 0; i-- {
				armEnv, armNB := env.clone(), nbEnv.clone()
				sy.execStmts(armEnv, armNB, arms[i].body)
				nextEnv, nextNB := env.clone(), nbEnv.clone()
				sy.mergeEnv(nextEnv, arms[i].cond, armEnv, curEnv, sy.holdFallback(env))
				sy.mergeEnv(nextNB, arms[i].cond, armNB, curNB, sy.holdFallback(env))
				curEnv, curNB = nextEnv, nextNB
			}
			for k, v := range curEnv {
				env[k] = v
			}
			for k, v := range curNB {
				nbEnv[k] = v
			}
		}
	}
}

// holdFallback resolves a signal untouched by one branch arm to its
// pre-branch value, or a hold variable when it has none. For the
// non-blocking env that is the register's current value: a register
// not assigned in an arm holds.
func (sy *symbolicEvaluator) holdFallback(env SymEnv) func(int) *smt.Term {
	return func(k int) *smt.Term {
		return sy.readFor(env, env, k, sy.d.Signals[k].Width)
	}
}

// mergeEnv folds two branch environments into dst with ite(cond, a, b)
// for every signal either branch touched; signals missing from one side
// resolve through the fallback (held value).
func (sy *symbolicEvaluator) mergeEnv(dst SymEnv, cond *smt.Term, a, b SymEnv, fb func(int) *smt.Term) {
	keys := map[int]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	for k := range keys {
		av, aok := a[k]
		bv, bok := b[k]
		if !aok {
			av = fb(k)
		}
		if !bok {
			bv = fb(k)
		}
		if av == bv {
			dst[k] = av
		} else {
			dst[k] = smt.Ite(cond, av, bv)
		}
	}
}

// Transition is the symbolic one-step transition relation of a design:
// the dependency equations of §4.4.2 in executable form.
type Transition struct {
	Design *elab.Design
	// Inputs are the primary input signals (variables "in.<name>").
	Inputs []*elab.Signal
	// Regs are the sequential registers (variables "cur.<name>").
	Regs []*elab.Signal
	// Comb maps every combinationally-settled signal index to its term
	// over inputs and current registers.
	Comb SymEnv
	// Next maps each sequential register index to its next-cycle term.
	Next SymEnv
	// EqCount is the number of dependency equations generated.
	EqCount int
}

// BuildTransition symbolically executes the design's combinational logic
// (in dependency order) and its sequential processes to produce the
// one-step transition relation.
func BuildTransition(d *elab.Design) (*Transition, error) {
	sy := &symbolicEvaluator{d: d}
	env := SymEnv{}
	tr := &Transition{Design: d, Comb: env, Next: SymEnv{}}

	for _, sig := range d.Signals {
		switch {
		case sig.Kind == elab.SigInput:
			env[sig.Index] = smt.Var(InVar+sig.Name, sig.Width)
			tr.Inputs = append(tr.Inputs, sig)
		case sig.IsReg:
			env[sig.Index] = smt.Var(CurVar+sig.Name, sig.Width)
			tr.Regs = append(tr.Regs, sig)
		}
	}

	// Topologically order combinational processes; break cycles by
	// original order (held values become hold variables).
	order := topoCombOrder(d)
	for _, pi := range order {
		p := d.Procs[pi]
		sy.execStmts(env, SymEnv{}, p.Body)
	}

	// Sequential processes: non-blocking writes become next-state terms.
	for _, p := range d.Procs {
		if p.Kind != elab.ProcSeq {
			continue
		}
		nb := SymEnv{}
		seqEnv := env.clone()
		sy.execStmts(seqEnv, nb, p.Body)
		for k, v := range nb {
			tr.Next[k] = v
		}
		// Blocking writes inside sequential blocks also persist.
		for k, v := range seqEnv {
			if d.Signals[k].IsReg && env[k] != v {
				if _, already := tr.Next[k]; !already {
					tr.Next[k] = v
				}
			}
		}
	}
	// Registers never written hold their value.
	for _, r := range tr.Regs {
		if _, ok := tr.Next[r.Index]; !ok {
			tr.Next[r.Index] = env[r.Index]
		}
	}
	tr.EqCount = sy.eqCount
	return tr, nil
}

// topoCombOrder orders combinational processes so producers run before
// consumers; cycles fall back to index order.
func topoCombOrder(d *elab.Design) []int {
	var combs []int
	writerOf := map[int][]int{} // signal -> comb procs writing it
	for i, p := range d.Procs {
		if p.Kind != elab.ProcComb {
			continue
		}
		combs = append(combs, i)
		for _, w := range p.Writes {
			writerOf[w] = append(writerOf[w], i)
		}
	}
	// Edges: writer -> reader.
	succ := map[int][]int{}
	indeg := map[int]int{}
	for _, pi := range combs {
		indeg[pi] = 0
	}
	for _, pi := range combs {
		for _, r := range d.Procs[pi].Reads {
			for _, wp := range writerOf[r] {
				if wp == pi {
					continue
				}
				succ[wp] = append(succ[wp], pi)
				indeg[pi]++
			}
		}
	}
	var queue []int
	for _, pi := range combs {
		if indeg[pi] == 0 {
			queue = append(queue, pi)
		}
	}
	sort.Ints(queue)
	var order []int
	seen := map[int]bool{}
	for len(queue) > 0 {
		pi := queue[0]
		queue = queue[1:]
		if seen[pi] {
			continue
		}
		seen[pi] = true
		order = append(order, pi)
		for _, nxt := range succ[pi] {
			indeg[nxt]--
			if indeg[nxt] <= 0 && !seen[nxt] {
				queue = append(queue, nxt)
			}
		}
	}
	// Append any processes stuck in cycles, in index order.
	for _, pi := range combs {
		if !seen[pi] {
			order = append(order, pi)
		}
	}
	return order
}

// InputVar returns the solver variable name for an input signal.
func InputVar(sig *elab.Signal) string { return InVar + sig.Name }

// RegVar returns the solver variable name for a current-state register.
func RegVar(sig *elab.Signal) string { return CurVar + sig.Name }

// DeclareVars declares every variable a term references in the solver,
// returning an error for widths that cannot be recovered.
func DeclareVars(s *smt.Solver, t *smt.Term) {
	var walk func(x *smt.Term)
	walk = func(x *smt.Term) {
		if x.Kind == smt.KVar {
			s.Var(x.Name, x.W)
		}
		for _, a := range x.Args {
			walk(a)
		}
	}
	walk(t)
}

// ConstBV converts a four-state value into a term, replacing unknown
// bits with zeros (the solver reasons over two-state values).
func ConstBV(v logic.BV) *smt.Term {
	if v.IsFullyDefined() {
		return smt.Const(v)
	}
	clean := logic.Zero(v.Width())
	for i := 0; i < v.Width(); i++ {
		if v.Bit(i) == logic.L1 {
			clean = clean.WithBit(i, logic.L1)
		}
	}
	return smt.Const(clean)
}
