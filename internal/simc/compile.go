package simc

import (
	"fmt"

	"repro/internal/elab"
	"repro/internal/logic"
)

// The compiler lowers each elaborated process body into a tree of Go
// closures. Lowering happens once per Machine (closures capture the
// machine's state), so steady-state evaluation is straight-line closure
// calls with no interpreter dispatch and no allocation.
//
// Each expression and statement node takes one of two lowerings, chosen
// at compile time from static widths by oneWord:
//
//   - one-word: the node's result and every operand fit in one 64-bit
//     word. The node compiles to a wordF returning its aval/bval planes
//     as two uint64s; nothing goes through a buffer, and an assignment
//     compares and commits the signal's single arena word in place.
//   - wide: anything else. The node compiles to an exprF evaluating into
//     a preallocated word-packed buffer (pval).
//
// A node whose operands were lowered the other way reads them through
// an adapter (wordOf, planesOf): a one-word parent reads word 0
// of a wide operand (e.g. == over two 70-bit values), and a wide parent
// copies a one-word operand into a buffer of its own.
//
// Every lowered node mirrors the corresponding elab Eval/Exec
// bit-for-bit, including X/Z propagation, so the two backends are
// interchangeable cycle-for-cycle.

type exprF func() *pval

// wordF evaluates a one-word node: its aval and bval planes, with the
// bits above the node's width zero.
type wordF func() (a, b uint64)

type stmtF func()

// node is one lowered expression: exactly one of word and wide is set.
type node struct {
	w    int
	word wordF
	wide exprF
}

func wordNode(w int, f wordF) node { return node{w: w, word: f} }

func wideNode(w int, f exprF) node { return node{w: w, wide: f} }

type compiler struct {
	m *Machine
	// words and wides count the nodes given each lowering; narrowed
	// counts the wide nodes a one-word parent reads.
	words, wides, narrowed int
}

// oneWord is the lowering choice: a node whose result and operands
// have the given static widths takes the one-word lowering iff every
// width is between 1 and 64. It counts the node under its lowering.
func (c *compiler) oneWord(widths ...int) bool {
	for _, w := range widths {
		if w < 1 || w > 64 {
			c.wides++
			return false
		}
	}
	c.words++
	return true
}

// wordOf returns n as a one-word closure. A wide node here has a
// one-word result over wider operands; it reads word 0 of its buffer.
func (c *compiler) wordOf(n node) wordF {
	if n.word != nil {
		return n.word
	}
	c.narrowed++
	f := n.wide
	return func() (uint64, uint64) {
		p := f()
		return p.a[0], p.b[0]
	}
}

// planesOf returns n as a buffer closure. A one-word node here feeds a
// wide parent; it is copied into a buffer of its own.
func (c *compiler) planesOf(n node) exprF {
	if n.wide != nil {
		return n.wide
	}
	f, dst := n.word, newPval(n.w)
	return func() *pval {
		dst.a[0], dst.b[0] = f()
		return dst
	}
}

// compileExpr lowers an expression. The node's width is the static
// width of the value it produces (the width Eval would return at
// runtime).
func (c *compiler) compileExpr(e elab.Expr) node {
	m := c.m
	switch e := e.(type) {
	case elab.Const:
		w := e.V.Width()
		a, b := e.V.Words()
		if c.oneWord(w) {
			ca, cb := a[0], b[0]
			return wordNode(w, func() (uint64, uint64) { return ca, cb })
		}
		dst := newPval(w)
		copy(dst.a, a)
		copy(dst.b, b)
		dst.maskTop()
		return wideNode(w, func() *pval { return dst })

	case elab.Sig:
		s := m.slots[e.Idx]
		if c.oneWord(s.width) {
			// The arena never reallocates, so the word addresses are
			// fixed for the machine's lifetime.
			pa, pb := &m.aw[s.off], &m.bw[s.off]
			return wordNode(s.width, func() (uint64, uint64) { return *pa, *pb })
		}
		v := m.sigView(e.Idx)
		return wideNode(v.width, func() *pval { return v })

	case elab.Bin:
		return c.compileBin(e)

	case elab.Un:
		return c.compileUn(e)

	case elab.Cond:
		cn, t, f := c.compileExpr(e.C), c.compileExpr(e.T), c.compileExpr(e.F)
		if t.w != f.w {
			panic(fmt.Sprintf("simc: cond branch width mismatch %d vs %d", t.w, f.w))
		}
		w := t.w
		if c.oneWord(w, cn.w) {
			cf, tf, ff, mask := c.wordOf(cn), c.wordOf(t), c.wordOf(f), wmask(w)
			return wordNode(w, func() (uint64, uint64) {
				switch truthWord(cf()) {
				case tOne:
					return tf()
				case tZero:
					return ff()
				}
				ta, tb := tf()
				fa, fb := ff()
				agree := ^(ta ^ fa) &^ tb &^ fb
				return (ta&agree | ^agree) & mask, ^agree & mask
			})
		}
		cf, tf, ff := c.planesOf(cn), c.planesOf(t), c.planesOf(f)
		dst := newPval(w)
		return wideNode(w, func() *pval { opMux(dst, cf(), tf(), ff()); return dst })

	case elab.CatE:
		parts := make([]node, len(e.Parts))
		ws := make([]int, len(e.Parts))
		total := 0
		for i, p := range e.Parts {
			parts[i] = c.compileExpr(p)
			ws[i] = parts[i].w
			total += ws[i]
		}
		if c.oneWord(append(ws, total)...) {
			fs := make([]wordF, len(parts))
			shifts := make([]uint, len(parts))
			off := total
			for i, p := range parts {
				off -= p.w
				fs[i], shifts[i] = c.wordOf(p), uint(off)
			}
			return wordNode(total, func() (a, b uint64) {
				for i, f := range fs {
					pa, pb := f()
					a |= pa << shifts[i]
					b |= pb << shifts[i]
				}
				return a, b
			})
		}
		fs := make([]exprF, len(parts))
		for i, p := range parts {
			fs[i] = c.planesOf(p)
		}
		dst := newPval(total)
		return wideNode(total, func() *pval {
			dst.setZero()
			off := total
			for i := range fs {
				off -= ws[i]
				place(dst, fs[i](), off)
			}
			return dst
		})

	case elab.Slice:
		x := c.compileExpr(e.X)
		w, lo := e.Hi-e.Lo+1, e.Lo
		if c.oneWord(w, x.w) {
			// Result bit i reads x bit lo+i; positions outside x read X.
			xf, mask := c.wordOf(x), wmask(w)
			in := span(-lo, x.w-lo-1) & mask
			oor := mask &^ in
			if lo >= 0 {
				sh := uint(lo)
				return wordNode(w, func() (uint64, uint64) {
					a, b := xf()
					return a>>sh&in | oor, b>>sh&in | oor
				})
			}
			sh := uint(-lo)
			return wordNode(w, func() (uint64, uint64) {
				a, b := xf()
				return a<<sh&in | oor, b<<sh&in | oor
			})
		}
		xf := c.planesOf(x)
		dst := newPval(w)
		return wideNode(w, func() *pval { opExtract(dst, xf(), lo); return dst })

	case elab.BitSel:
		x, idx := c.compileExpr(e.X), c.compileExpr(e.Idx)
		xw := x.w
		if c.oneWord(xw, idx.w) {
			xf, idxf := c.wordOf(x), c.wordOf(idx)
			return wordNode(1, func() (uint64, uint64) {
				i, ib := idxf()
				if ib != 0 || i >= uint64(xw) {
					return 1, 1
				}
				a, b := xf()
				return a >> i & 1, b >> i & 1
			})
		}
		xf, idxf := c.planesOf(x), c.planesOf(idx)
		dst := newPval(1)
		return wideNode(1, func() *pval {
			i, ok := idxf().uint64Val()
			if !ok || i >= uint64(xw) {
				dst.setXBit()
				return dst
			}
			a, b := xf().bit(int(i))
			dst.a[0], dst.b[0] = a, b
			return dst
		})

	case elab.DynSlice:
		x, start := c.compileExpr(e.X), c.compileExpr(e.Start)
		xw, w := x.w, e.W
		if c.oneWord(w, xw, start.w) {
			xf, sf, mask := c.wordOf(x), c.wordOf(start), wmask(w)
			return wordNode(w, func() (uint64, uint64) {
				s, sb := sf()
				if sb != 0 {
					return mask, mask
				}
				a, b := xf()
				return extractWord(a, b, xw, int(s), mask)
			})
		}
		xf, sf := c.planesOf(x), c.planesOf(start)
		dst := newPval(w)
		return wideNode(w, func() *pval {
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
		})

	case elab.ZExt:
		x := c.compileExpr(e.X)
		w := e.W
		if c.oneWord(w, x.w) {
			xf := c.wordOf(x)
			if w >= x.w {
				// Zero-extension within a word leaves the planes as they are.
				return wordNode(w, xf)
			}
			mask := wmask(w)
			return wordNode(w, func() (uint64, uint64) {
				a, b := xf()
				return a & mask, b & mask
			})
		}
		xf := c.planesOf(x)
		dst := newPval(w)
		return wideNode(w, func() *pval { opResize(dst, xf()); return dst })

	case elab.MemRead:
		addr := c.compileExpr(e.Addr)
		w, depth, mem := e.W, e.Depth, e.Mem
		if c.oneWord(w, addr.w) {
			af, mask, words := c.wordOf(addr), wmask(w), m.mems[mem]
			return wordNode(w, func() (uint64, uint64) {
				i, ib := af()
				if ib != 0 || i >= uint64(depth) {
					return mask, mask
				}
				a, b := words[i].Words()
				return a[0] & mask, b[0] & mask
			})
		}
		af := c.planesOf(addr)
		dst := newPval(w)
		return wideNode(w, func() *pval {
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
		})
	}
	panic(fmt.Sprintf("simc: unknown expression %T", e))
}

func (c *compiler) compileUn(e elab.Un) node {
	x := c.compileExpr(e.X)
	w := 1
	if e.Op == elab.OpNot || e.Op == elab.OpNeg {
		w = x.w
	}
	if c.oneWord(w, x.w) {
		return wordNode(w, wordUn(e.Op, c.wordOf(x), x.w))
	}
	xf := c.planesOf(x)
	dst := newPval(w)
	switch e.Op {
	case elab.OpNot:
		return wideNode(w, func() *pval { opNot(dst, xf()); return dst })
	case elab.OpNeg:
		return wideNode(w, func() *pval { opNeg(dst, xf()); return dst })
	case elab.OpLNot:
		return wideNode(w, func() *pval { opLogicalNot(dst, xf()); return dst })
	case elab.OpRedAnd:
		return wideNode(w, func() *pval { opReduceAnd(dst, xf(), false); return dst })
	case elab.OpRedNand:
		return wideNode(w, func() *pval { opReduceAnd(dst, xf(), true); return dst })
	case elab.OpRedOr:
		return wideNode(w, func() *pval { opReduceOr(dst, xf(), false); return dst })
	case elab.OpRedNor:
		return wideNode(w, func() *pval { opReduceOr(dst, xf(), true); return dst })
	case elab.OpRedXor:
		return wideNode(w, func() *pval { opReduceXor(dst, xf(), false); return dst })
	case elab.OpRedXnor:
		return wideNode(w, func() *pval { opReduceXor(dst, xf(), true); return dst })
	}
	panic(fmt.Sprintf("simc: unknown unop %d", e.Op))
}

func (c *compiler) compileBin(e elab.Bin) node {
	x, y := c.compileExpr(e.X), c.compileExpr(e.Y)
	w := x.w
	switch e.Op {
	case elab.OpEq, elab.OpNeq, elab.OpLt, elab.OpLe, elab.OpGt, elab.OpGe:
		w = 1
		fallthrough
	case elab.OpAdd, elab.OpSub, elab.OpMul, elab.OpAnd, elab.OpOr, elab.OpXor, elab.OpXnor:
		if x.w != y.w {
			panic(fmt.Sprintf("simc: operand width mismatch %d vs %d", x.w, y.w))
		}
	case elab.OpCaseEq, elab.OpCaseNeq, elab.OpLAnd, elab.OpLOr:
		w = 1
	}
	if c.oneWord(w, x.w, y.w) {
		return wordNode(w, wordBin(e.Op, c.wordOf(x), c.wordOf(y), x.w, y.w))
	}
	xf, yf := c.planesOf(x), c.planesOf(y)
	dst := newPval(w)
	switch e.Op {
	case elab.OpAdd:
		return wideNode(w, func() *pval { opAdd(dst, xf(), yf()); return dst })
	case elab.OpSub:
		return wideNode(w, func() *pval { opSub(dst, xf(), yf()); return dst })
	case elab.OpMul:
		return wideNode(w, func() *pval { opMul(dst, xf(), yf()); return dst })
	case elab.OpAnd:
		return wideNode(w, func() *pval { opAnd(dst, xf(), yf()); return dst })
	case elab.OpOr:
		return wideNode(w, func() *pval { opOr(dst, xf(), yf()); return dst })
	case elab.OpXor:
		return wideNode(w, func() *pval { opXor(dst, xf(), yf(), false); return dst })
	case elab.OpXnor:
		return wideNode(w, func() *pval { opXor(dst, xf(), yf(), true); return dst })
	case elab.OpEq:
		return wideNode(w, func() *pval { opEq(dst, xf(), yf(), false); return dst })
	case elab.OpNeq:
		return wideNode(w, func() *pval { opEq(dst, xf(), yf(), true); return dst })
	case elab.OpCaseEq:
		return wideNode(w, func() *pval { opCaseEq(dst, xf(), yf(), false); return dst })
	case elab.OpCaseNeq:
		return wideNode(w, func() *pval { opCaseEq(dst, xf(), yf(), true); return dst })
	case elab.OpLt:
		return wideNode(w, func() *pval { opLt(dst, xf(), yf(), false); return dst })
	case elab.OpLe:
		return wideNode(w, func() *pval { opLt(dst, xf(), yf(), true); return dst })
	case elab.OpGt:
		return wideNode(w, func() *pval { opLt(dst, yf(), xf(), false); return dst })
	case elab.OpGe:
		return wideNode(w, func() *pval { opLt(dst, yf(), xf(), true); return dst })
	case elab.OpShl:
		return wideNode(w, func() *pval { opShl(dst, xf(), yf()); return dst })
	case elab.OpShr:
		return wideNode(w, func() *pval { opShr(dst, xf(), yf()); return dst })
	case elab.OpAshr:
		return wideNode(w, func() *pval { opAshr(dst, xf(), yf()); return dst })
	case elab.OpLAnd:
		return wideNode(w, func() *pval { opLogicalAnd(dst, xf(), yf()); return dst })
	case elab.OpLOr:
		return wideNode(w, func() *pval { opLogicalOr(dst, xf(), yf()); return dst })
	}
	panic(fmt.Sprintf("simc: unknown binop %d", e.Op))
}

// compileAssign lowers a target into a closure consuming the assigned
// value through a buffer (the wide lowering). The blocking/non-blocking
// mode is fixed at compile time.
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
		idxf := c.planesOf(c.compileExpr(t.BitE))
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
		addrf := c.planesOf(c.compileExpr(t.Addr))
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

// compileWordAssign lowers a one-word assignment to a whole signal
// (TSig) or a constant bit range of one (TRange): the value is merged
// into the signal's arena word and committed, or queued in the NBA
// pool, without a buffer. ok is false when the target takes the wide
// lowering.
func (c *compiler) compileWordAssign(lhs elab.Target, rhs node, nb bool) (f stmtF, ok bool) {
	m := c.m
	var idx int
	var keep, field uint64 // the current word's kept bits; the value's bits
	shift := 0             // value bit i lands on signal bit i+shift
	switch t := lhs.(type) {
	case elab.TSig:
		if !c.oneWord(t.W, rhs.w) {
			return nil, false
		}
		idx, field = t.Idx, wmask(t.W)
	case elab.TRange:
		if !c.oneWord(t.W, t.Hi-t.Lo+1, rhs.w) {
			return nil, false
		}
		idx, shift = t.Idx, t.Lo
		field = span(t.Lo, min(t.Hi, t.W-1))
		keep = wmask(t.W) &^ field
	default:
		return nil, false
	}
	rf := c.wordOf(rhs)
	if keep == 0 && shift == 0 {
		if nb {
			return func() { a, b := rf(); m.scheduleNBWord(idx, a&field, b&field) }, true
		}
		return func() { a, b := rf(); m.applyWord(idx, a&field, b&field) }, true
	}
	off := m.slots[idx].off
	if nb {
		return func() {
			a, b := rf()
			m.scheduleNBWord(idx, shiftBy(a, shift)&field|m.aw[off]&keep, shiftBy(b, shift)&field|m.bw[off]&keep)
		}, true
	}
	return func() {
		a, b := rf()
		m.applyWord(idx, shiftBy(a, shift)&field|m.aw[off]&keep, shiftBy(b, shift)&field|m.bw[off]&keep)
	}, true
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
		rhs := c.compileExpr(s.RHS)
		if f, ok := c.compileWordAssign(s.LHS, rhs, s.NB); ok {
			return f
		}
		assign, rf := c.compileAssign(s.LHS, s.NB), c.planesOf(rhs)
		return func() { assign(rf()) }

	case elab.SIf:
		cond := c.compileExpr(s.Cond)
		then := c.compileStmts(s.Then)
		els := c.compileStmts(s.Else)
		id := s.BranchID
		if c.oneWord(cond.w) {
			cf := c.wordOf(cond)
			return func() { m.branchIf(id, truthWord(cf()), then, els) }
		}
		cf := c.planesOf(cond)
		return func() { m.branchIf(id, cf().truthy(), then, els) }

	case elab.SCase:
		subj := c.compileExpr(s.Subject)
		id := s.BranchID
		widths := []int{subj.w}
		matches := make([][]node, len(s.Items))
		bodies := make([][]stmtF, len(s.Items))
		for i, item := range s.Items {
			bodies[i] = c.compileStmts(item.Body)
			for _, mx := range item.Matches {
				mn := c.compileExpr(mx)
				matches[i] = append(matches[i], mn)
				widths = append(widths, mn.w)
			}
		}
		def := c.compileStmts(s.Default)
		// Verilog case match: exact four-state equality of the match
		// value resized to the subject width. (A fully-defined equal pair
		// is a special case of Eq4 on the resized operands, so one
		// comparison covers both clauses of the interpreter's test.)
		if c.oneWord(widths...) {
			sf, mask := c.wordOf(subj), wmask(subj.w)
			arms := make([][]wordF, len(matches))
			for i, ms := range matches {
				for _, mn := range ms {
					arms[i] = append(arms[i], c.wordOf(mn))
				}
			}
			return func() {
				sa, sb := sf()
				for i, arm := range arms {
					for _, mf := range arm {
						if a, b := mf(); a&mask == sa && b&mask == sb {
							m.Branch(id, i)
							runStmts(bodies[i])
							return
						}
					}
				}
				m.Branch(id, len(arms))
				runStmts(def)
			}
		}
		sf := c.planesOf(subj)
		type caseArm struct {
			matches []exprF
			mbufs   []*pval
		}
		arms := make([]caseArm, len(matches))
		for i, ms := range matches {
			for _, mn := range ms {
				arms[i].matches = append(arms[i].matches, c.planesOf(mn))
				arms[i].mbufs = append(arms[i].mbufs, newPval(subj.w))
			}
		}
		return func() {
			sv := sf()
			for i := range arms {
				arm := &arms[i]
				for k, mf := range arm.matches {
					opResize(arm.mbufs[k], mf())
					if sv.eqWords(arm.mbufs[k]) {
						m.Branch(id, i)
						runStmts(bodies[i])
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
