package analysis

import (
	"fmt"

	"repro/internal/elab"
	"repro/internal/smt"
)

// Lower translates an IR expression into a QF_BV term: the one mapping
// from elaborated RTL to solver terms, shared by the CFG's dependency
// equations and lint's dead-arm prover. Callers differ only in how a
// signal read becomes a term (sig) and how an unconstrained value is
// named (fresh, called with why = "xconst" for a constant with X/Z
// bits and "mem" for a memory read).
//
// Under a two-state binding of every signal the lowered term evaluates
// to the interpreter's value with X bits read as 0 (pinned against
// elab's Eval by TestLowerMatchesEval). Subterms are lowered left to
// right, so fresh variables are minted in a fixed order and variable
// numbering is stable across runs.
func Lower(x elab.Expr, sig func(idx, w int) *smt.Term, fresh func(w int, why string) *smt.Term) *smt.Term {
	var lower func(x elab.Expr) *smt.Term
	lower = func(x elab.Expr) *smt.Term {
		switch n := x.(type) {
		case elab.Const:
			if n.V.IsFullyDefined() {
				return smt.Const(n.V)
			}
			// Unknown constant bits are unconstrained choices, matching
			// the paper's treatment of undefined pin/register values.
			return fresh(n.V.Width(), "xconst")
		case elab.Sig:
			return sig(n.Idx, n.W)
		case elab.Bin:
			return lowerBin(n.Op, lower(n.X), lower(n.Y))
		case elab.Un:
			return lowerUn(n.Op, lower(n.X))
		case elab.Cond:
			c := smt.RedOr(lower(n.C))
			t := lower(n.T)
			return smt.Ite(c, t, lower(n.F))
		case elab.CatE:
			parts := make([]*smt.Term, len(n.Parts))
			for i, p := range n.Parts {
				parts[i] = lower(p)
			}
			return smt.Concat(parts...)
		case elab.Slice:
			return smt.Extract(lower(n.X), n.Hi, n.Lo)
		case elab.BitSel:
			xx := lower(n.X)
			return smt.Extract(Shift(elab.OpShr, xx, lower(n.Idx)), 0, 0)
		case elab.DynSlice:
			xx := lower(n.X)
			shifted := Shift(elab.OpShr, xx, lower(n.Start))
			if n.W <= xx.Width() {
				return smt.Extract(shifted, n.W-1, 0)
			}
			return smt.ZExt(shifted, n.W)
		case elab.ZExt:
			return smt.ZExt(lower(n.X), n.W)
		case elab.MemRead:
			// Memory contents are unconstrained.
			return fresh(n.W, "mem")
		}
		panic(fmt.Sprintf("analysis: cannot lower %T", x))
	}
	return lower(x)
}

func lowerBin(op elab.BinOp, x, y *smt.Term) *smt.Term {
	switch op {
	case elab.OpAdd:
		return smt.Add(x, y)
	case elab.OpSub:
		return smt.Sub(x, y)
	case elab.OpMul:
		return smt.Mul(x, y)
	case elab.OpAnd:
		return smt.And(x, y)
	case elab.OpOr:
		return smt.Or(x, y)
	case elab.OpXor:
		return smt.Xor(x, y)
	case elab.OpXnor:
		return smt.Not(smt.Xor(x, y))
	case elab.OpEq, elab.OpCaseEq:
		return smt.Eq(x, y)
	case elab.OpNeq, elab.OpCaseNeq:
		return smt.Ne(x, y)
	case elab.OpLt:
		return smt.Ult(x, y)
	case elab.OpLe:
		return smt.Ule(x, y)
	case elab.OpGt:
		return smt.Ugt(x, y)
	case elab.OpGe:
		return smt.Uge(x, y)
	case elab.OpShl, elab.OpShr, elab.OpAshr:
		return Shift(op, x, y)
	case elab.OpLAnd:
		return smt.And(smt.RedOr(x), smt.RedOr(y))
	case elab.OpLOr:
		return smt.Or(smt.RedOr(x), smt.RedOr(y))
	}
	panic(fmt.Sprintf("analysis: cannot lower binary op %d", op))
}

func lowerUn(op elab.UnOp, x *smt.Term) *smt.Term {
	switch op {
	case elab.OpNot:
		return smt.Not(x)
	case elab.OpLNot:
		return smt.Not(smt.RedOr(x))
	case elab.OpNeg:
		return smt.Neg(x)
	case elab.OpRedAnd:
		return smt.RedAnd(x)
	case elab.OpRedOr:
		return smt.RedOr(x)
	case elab.OpRedXor:
		return smt.RedXor(x)
	case elab.OpRedNand:
		return smt.Not(smt.RedAnd(x))
	case elab.OpRedNor:
		return smt.Not(smt.RedOr(x))
	case elab.OpRedXnor:
		return smt.Not(smt.RedXor(x))
	}
	panic(fmt.Sprintf("analysis: cannot lower unary op %d", op))
}

// Shift lowers x << amt (OpShl), x >> amt (OpShr) or x >>> amt (OpAshr,
// which the interpreter always fills from the MSB) on x's width. An
// amount narrower than x is zero-extended; a wider one is kept whole,
// since truncating it would wrap: the shift terms read every amount
// bit, so an amount of x's width or more clears the result (or fills
// it with the MSB for >>>), as the interpreter does.
func Shift(op elab.BinOp, x, amt *smt.Term) *smt.Term {
	if amt.Width() < x.Width() {
		amt = smt.ZExt(amt, x.Width())
	}
	switch op {
	case elab.OpShl:
		return smt.Shl(x, amt)
	case elab.OpShr:
		return smt.Shr(x, amt)
	}
	msb := smt.Extract(x, x.Width()-1, x.Width()-1)
	return smt.Ite(msb, smt.Not(smt.Shr(smt.Not(x), amt)), smt.Shr(x, amt))
}

// CaseMatch is the condition under which a case item is selected: the
// subject equals any of its labels, each lowered in order by lower and
// zero-extended or truncated to the subject's width. An item without
// labels never matches.
func CaseMatch(subj *smt.Term, labels []elab.Expr, lower func(elab.Expr) *smt.Term) *smt.Term {
	c := smt.False()
	for i, m := range labels {
		mc := smt.Eq(subj, smt.ZExt(lower(m), subj.Width()))
		if i == 0 {
			c = mc
		} else {
			c = smt.Or(c, mc)
		}
	}
	return c
}
