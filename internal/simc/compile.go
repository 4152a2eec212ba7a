package simc

import (
	"fmt"

	"repro/internal/elab"
	"repro/internal/logic"
)

// The compiler lowers each elaborated process body into a tree of Go
// closures: exprF nodes evaluate into preallocated word-packed buffers
// and stmtF nodes execute assignments and branches directly against the
// machine's signal arena. Lowering happens once per Machine (closures
// capture the machine's state), so steady-state evaluation is
// straight-line closure calls with no interpreter dispatch and no
// allocation.
//
// Every lowered node mirrors the corresponding elab Eval/Exec
// bit-for-bit, including X/Z propagation, so the two backends are
// interchangeable cycle-for-cycle.

type exprF func() *pval

type stmtF func()

type compiler struct {
	m *Machine
}

// compileExpr lowers an expression, returning the evaluation closure
// and the static width of the value it produces (the width Eval would
// return at runtime).
func (c *compiler) compileExpr(e elab.Expr) (exprF, int) {
	m := c.m
	switch e := e.(type) {
	case elab.Const:
		w := e.V.Width()
		dst := newPval(w)
		a, b := e.V.Words()
		copy(dst.a, a)
		copy(dst.b, b)
		dst.maskTop()
		return func() *pval { return dst }, w

	case elab.Sig:
		v := m.sigView(e.Idx)
		return func() *pval { return v }, v.width

	case elab.Bin:
		return c.compileBin(e)

	case elab.Un:
		xf, xw := c.compileExpr(e.X)
		switch e.Op {
		case elab.OpNot:
			dst := newPval(xw)
			return func() *pval { opNot(dst, xf()); return dst }, xw
		case elab.OpNeg:
			dst := newPval(xw)
			return func() *pval { opNeg(dst, xf()); return dst }, xw
		case elab.OpLNot:
			dst := newPval(1)
			return func() *pval { opLogicalNot(dst, xf()); return dst }, 1
		case elab.OpRedAnd:
			dst := newPval(1)
			return func() *pval { opReduceAnd(dst, xf(), false); return dst }, 1
		case elab.OpRedNand:
			dst := newPval(1)
			return func() *pval { opReduceAnd(dst, xf(), true); return dst }, 1
		case elab.OpRedOr:
			dst := newPval(1)
			return func() *pval { opReduceOr(dst, xf(), false); return dst }, 1
		case elab.OpRedNor:
			dst := newPval(1)
			return func() *pval { opReduceOr(dst, xf(), true); return dst }, 1
		case elab.OpRedXor:
			dst := newPval(1)
			return func() *pval { opReduceXor(dst, xf(), false); return dst }, 1
		case elab.OpRedXnor:
			dst := newPval(1)
			return func() *pval { opReduceXor(dst, xf(), true); return dst }, 1
		}
		panic(fmt.Sprintf("simc: unknown unop %d", e.Op))

	case elab.Cond:
		cf, _ := c.compileExpr(e.C)
		tf, tw := c.compileExpr(e.T)
		ff, fw := c.compileExpr(e.F)
		if tw != fw {
			panic(fmt.Sprintf("simc: cond branch width mismatch %d vs %d", tw, fw))
		}
		dst := newPval(tw)
		return func() *pval { opMux(dst, cf(), tf(), ff()); return dst }, tw

	case elab.CatE:
		fs := make([]exprF, len(e.Parts))
		ws := make([]int, len(e.Parts))
		total := 0
		for i, p := range e.Parts {
			fs[i], ws[i] = c.compileExpr(p)
			total += ws[i]
		}
		dst := newPval(total)
		return func() *pval {
			dst.setZero()
			off := total
			for i := range fs {
				off -= ws[i]
				place(dst, fs[i](), off)
			}
			return dst
		}, total

	case elab.Slice:
		xf, _ := c.compileExpr(e.X)
		w := e.Hi - e.Lo + 1
		dst := newPval(w)
		lo := e.Lo
		return func() *pval { opExtract(dst, xf(), lo); return dst }, w

	case elab.BitSel:
		xf, xw := c.compileExpr(e.X)
		idxf, _ := c.compileExpr(e.Idx)
		dst := newPval(1)
		return func() *pval {
			i, ok := idxf().uint64Val()
			if !ok || i >= uint64(xw) {
				dst.setXBit()
				return dst
			}
			a, b := xf().bit(int(i))
			dst.a[0], dst.b[0] = a, b
			return dst
		}, 1

	case elab.DynSlice:
		xf, xw := c.compileExpr(e.X)
		sf, _ := c.compileExpr(e.Start)
		w := e.W
		dst := newPval(w)
		return func() *pval {
			sv, ok := sf().uint64Val()
			if !ok {
				dst.setX()
				return dst
			}
			x := xf()
			for i := 0; i < w; i++ {
				src := int(sv) + i
				if src >= 0 && src < xw {
					a, b := x.bit(src)
					dst.setBit(i, a, b)
				} else {
					dst.setBit(i, 1, 1)
				}
			}
			return dst
		}, w

	case elab.ZExt:
		xf, _ := c.compileExpr(e.X)
		dst := newPval(e.W)
		return func() *pval { opResize(dst, xf()); return dst }, e.W

	case elab.MemRead:
		af, _ := c.compileExpr(e.Addr)
		w, depth, mem := e.W, e.Depth, e.Mem
		dst := newPval(w)
		return func() *pval {
			a, ok := af().uint64Val()
			if !ok || a >= uint64(depth) {
				dst.setX()
				return dst
			}
			wa, wb := m.GetMem(mem, a).Words()
			copy(dst.a, wa)
			copy(dst.b, wb)
			dst.maskTop()
			return dst
		}, w
	}
	panic(fmt.Sprintf("simc: unknown expression %T", e))
}

func (c *compiler) compileBin(e elab.Bin) (exprF, int) {
	xf, xw := c.compileExpr(e.X)
	yf, yw := c.compileExpr(e.Y)
	sameWidth := func() {
		if xw != yw {
			panic(fmt.Sprintf("simc: operand width mismatch %d vs %d", xw, yw))
		}
	}
	switch e.Op {
	case elab.OpAdd:
		sameWidth()
		dst := newPval(xw)
		return func() *pval { opAdd(dst, xf(), yf()); return dst }, xw
	case elab.OpSub:
		sameWidth()
		dst := newPval(xw)
		return func() *pval { opSub(dst, xf(), yf()); return dst }, xw
	case elab.OpMul:
		sameWidth()
		dst := newPval(xw)
		return func() *pval { opMul(dst, xf(), yf()); return dst }, xw
	case elab.OpAnd:
		sameWidth()
		dst := newPval(xw)
		return func() *pval { opAnd(dst, xf(), yf()); return dst }, xw
	case elab.OpOr:
		sameWidth()
		dst := newPval(xw)
		return func() *pval { opOr(dst, xf(), yf()); return dst }, xw
	case elab.OpXor:
		sameWidth()
		dst := newPval(xw)
		return func() *pval { opXor(dst, xf(), yf(), false); return dst }, xw
	case elab.OpXnor:
		sameWidth()
		dst := newPval(xw)
		return func() *pval { opXor(dst, xf(), yf(), true); return dst }, xw
	case elab.OpEq:
		sameWidth()
		dst := newPval(1)
		return func() *pval { opEq(dst, xf(), yf(), false); return dst }, 1
	case elab.OpNeq:
		sameWidth()
		dst := newPval(1)
		return func() *pval { opEq(dst, xf(), yf(), true); return dst }, 1
	case elab.OpCaseEq:
		dst := newPval(1)
		return func() *pval { opCaseEq(dst, xf(), yf(), false); return dst }, 1
	case elab.OpCaseNeq:
		dst := newPval(1)
		return func() *pval { opCaseEq(dst, xf(), yf(), true); return dst }, 1
	case elab.OpLt:
		sameWidth()
		dst := newPval(1)
		return func() *pval { opLt(dst, xf(), yf(), false); return dst }, 1
	case elab.OpLe:
		sameWidth()
		dst := newPval(1)
		return func() *pval { opLt(dst, xf(), yf(), true); return dst }, 1
	case elab.OpGt:
		sameWidth()
		dst := newPval(1)
		return func() *pval { opLt(dst, yf(), xf(), false); return dst }, 1
	case elab.OpGe:
		sameWidth()
		dst := newPval(1)
		return func() *pval { opLt(dst, yf(), xf(), true); return dst }, 1
	case elab.OpShl:
		dst := newPval(xw)
		return func() *pval { opShl(dst, xf(), yf()); return dst }, xw
	case elab.OpShr:
		dst := newPval(xw)
		return func() *pval { opShr(dst, xf(), yf()); return dst }, xw
	case elab.OpAshr:
		dst := newPval(xw)
		return func() *pval { opAshr(dst, xf(), yf()); return dst }, xw
	case elab.OpLAnd:
		dst := newPval(1)
		return func() *pval { opLogicalAnd(dst, xf(), yf()); return dst }, 1
	case elab.OpLOr:
		dst := newPval(1)
		return func() *pval { opLogicalOr(dst, xf(), yf()); return dst }, 1
	}
	panic(fmt.Sprintf("simc: unknown binop %d", e.Op))
}

// compileAssign lowers a target into a closure consuming the assigned
// value. The blocking/non-blocking mode is fixed at compile time.
func (c *compiler) compileAssign(t elab.Target, nb bool) func(v *pval) {
	m := c.m
	switch t := t.(type) {
	case elab.TSig:
		buf := newPval(t.W)
		idx := t.Idx
		if nb {
			return func(v *pval) { opResize(buf, v); m.scheduleNB(idx, buf) }
		}
		return func(v *pval) { opResize(buf, v); m.applyPval(idx, buf) }

	case elab.TRange:
		rbuf := newPval(t.Hi - t.Lo + 1)
		out := newPval(t.W)
		idx, hi, lo, fullW := t.Idx, t.Hi, t.Lo, t.W
		cur := m.sigView(idx)
		return func(v *pval) {
			opResize(rbuf, v)
			out.copyFrom(cur)
			for i := lo; i <= hi && i < fullW; i++ {
				a, b := rbuf.bit(i - lo)
				out.setBit(i, a, b)
			}
			if nb {
				m.scheduleNB(idx, out)
			} else {
				m.applyPval(idx, out)
			}
		}

	case elab.TBit:
		idxf, _ := c.compileExpr(t.BitE)
		out := newPval(t.W)
		idx, fullW := t.Idx, t.W
		cur := m.sigView(idx)
		return func(v *pval) {
			i, ok := idxf().uint64Val()
			if !ok || i >= uint64(fullW) {
				return
			}
			out.copyFrom(cur)
			a, b := v.bit(0)
			out.setBit(int(i), a, b)
			if nb {
				m.scheduleNB(idx, out)
			} else {
				m.applyPval(idx, out)
			}
		}

	case elab.TCat:
		vbuf := newPval(t.W)
		parts := make([]func(v *pval), len(t.Parts))
		bufs := make([]*pval, len(t.Parts))
		lows := make([]int, len(t.Parts))
		hi := t.W - 1
		for i, p := range t.Parts {
			parts[i] = c.compileAssign(p, nb)
			bufs[i] = newPval(p.TWidth())
			lows[i] = hi - p.TWidth() + 1
			hi = lows[i] - 1
		}
		return func(v *pval) {
			opResize(vbuf, v)
			for i := range parts {
				opExtract(bufs[i], vbuf, lows[i])
				parts[i](bufs[i])
			}
		}

	case elab.TMem:
		addrf, _ := c.compileExpr(t.Addr)
		vbuf := newPval(t.W)
		mem, w, depth := t.Mem, t.W, t.Depth
		return func(v *pval) {
			a, ok := addrf().uint64Val()
			if !ok || a >= uint64(depth) {
				return
			}
			opResize(vbuf, v)
			bv := logic.FromWords(w, vbuf.a, vbuf.b)
			if nb {
				m.nbaMem = append(m.nbaMem, nbaMemEntry{mem: mem, addr: a, val: bv})
			} else {
				m.SetMem(mem, a, bv)
			}
		}
	}
	panic(fmt.Sprintf("simc: unknown target %T", t))
}

func (c *compiler) compileStmts(list []elab.Stmt) []stmtF {
	out := make([]stmtF, len(list))
	for i, s := range list {
		out[i] = c.compileStmt(s)
	}
	return out
}

func runStmts(list []stmtF) {
	for _, f := range list {
		f()
	}
}

func (c *compiler) compileStmt(s elab.Stmt) stmtF {
	m := c.m
	switch s := s.(type) {
	case elab.SAssign:
		rhs, _ := c.compileExpr(s.RHS)
		assign := c.compileAssign(s.LHS, s.NB)
		return func() { assign(rhs()) }

	case elab.SIf:
		cond, _ := c.compileExpr(s.Cond)
		then := c.compileStmts(s.Then)
		els := c.compileStmts(s.Else)
		id := s.BranchID
		return func() {
			switch cond().truthy() {
			case tOne:
				m.Branch(id, 0)
				runStmts(then)
			case tZero:
				m.Branch(id, 1)
				runStmts(els)
			default:
				m.Branch(id, 2)
			}
		}

	case elab.SCase:
		subj, subjW := c.compileExpr(s.Subject)
		id := s.BranchID
		type caseArm struct {
			matches []exprF
			mbufs   []*pval
			body    []stmtF
		}
		arms := make([]caseArm, len(s.Items))
		for i, item := range s.Items {
			arm := caseArm{body: c.compileStmts(item.Body)}
			for _, mx := range item.Matches {
				mf, _ := c.compileExpr(mx)
				arm.matches = append(arm.matches, mf)
				arm.mbufs = append(arm.mbufs, newPval(subjW))
			}
			arms[i] = arm
		}
		def := c.compileStmts(s.Default)
		return func() {
			sv := subj()
			for i := range arms {
				arm := &arms[i]
				for k, mf := range arm.matches {
					// Verilog case match: exact four-state equality of the
					// match value resized to the subject width. (A
					// fully-defined equal pair is a special case of Eq4 on
					// the resized operands, so one comparison covers both
					// clauses of the interpreter's test.)
					opResize(arm.mbufs[k], mf())
					if sv.eqWords(arm.mbufs[k]) {
						m.Branch(id, i)
						runStmts(arm.body)
						return
					}
				}
			}
			m.Branch(id, len(arms))
			runStmts(def)
		}
	}
	panic(fmt.Sprintf("simc: unknown statement %T", s))
}
