package analysis

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/simc/diff"
	"repro/internal/smt"
)

// lowerCheck compares Lower against the interpreter (elab's Eval) under
// one two-state binding of every signal: sig i reads as variable "s<i>"
// bound to vals[i].
type lowerCheck struct {
	d    *elab.Design
	vals []logic.BV
	bind map[string]*smt.Term
	// solveEvery routes every n-th compared expression through the
	// solver as well (0 = never).
	solveEvery int

	checked, solved, shifts int
}

func newLowerCheck(d *elab.Design, rng *rand.Rand, solveEvery int) *lowerCheck {
	c := &lowerCheck{d: d, bind: map[string]*smt.Term{}, solveEvery: solveEvery}
	for i, s := range d.Signals {
		v := logic.Rand(s.Width, rng.Uint64)
		c.vals = append(c.vals, v)
		c.bind[fmt.Sprintf("s%d", i)] = smt.Const(v)
	}
	return c
}

func (c *lowerCheck) Get(i int) logic.BV { return c.vals[i] }

// GetMem reads X: memories are unbound, and their reads lower to fresh
// variables, which do not fold to a constant.
func (c *lowerCheck) GetMem(m int, _ uint64) logic.BV { return logic.X(c.d.Memories[m].Width) }

func (c *lowerCheck) lower(x elab.Expr) *smt.Term {
	fresh := 0
	return Lower(x, func(idx, w int) *smt.Term {
		return smt.Var(fmt.Sprintf("s%d", idx), w)
	}, func(w int, why string) *smt.Term {
		fresh++
		return smt.Var(fmt.Sprintf("free.%s.%d", why, fresh), w)
	})
}

// xAsZero is the two-state reading of a four-state value.
func xAsZero(v logic.BV) logic.BV {
	out := logic.Zero(v.Width())
	for i := 0; i < v.Width(); i++ {
		if v.Bit(i) == logic.L1 {
			out = out.WithBit(i, logic.L1)
		}
	}
	return out
}

func subExprs(x elab.Expr) []elab.Expr {
	switch n := x.(type) {
	case elab.Bin:
		return []elab.Expr{n.X, n.Y}
	case elab.Un:
		return []elab.Expr{n.X}
	case elab.Cond:
		return []elab.Expr{n.C, n.T, n.F}
	case elab.CatE:
		return n.Parts
	case elab.Slice:
		return []elab.Expr{n.X}
	case elab.BitSel:
		return []elab.Expr{n.X, n.Idx}
	case elab.DynSlice:
		return []elab.Expr{n.X, n.Start}
	case elab.ZExt:
		return []elab.Expr{n.X}
	case elab.MemRead:
		return []elab.Expr{n.Addr}
	}
	return nil
}

// slicesOutOfRange reports a constant part-select reaching past its
// operand anywhere in x. The generator emits them so the simulators
// see out-of-range reads, but elab rejects them from source ("part-
// select [5:4] out of range for width 4") and smt.Extract panics on
// them, so no lowered design contains one.
func slicesOutOfRange(x elab.Expr) bool {
	if s, ok := x.(elab.Slice); ok && s.Hi >= s.X.Width() {
		return true
	}
	for _, sub := range subExprs(x) {
		if slicesOutOfRange(sub) {
			return true
		}
	}
	return false
}

// expr checks x and then every subexpression of it.
func (c *lowerCheck) expr(t *testing.T, x elab.Expr) {
	t.Helper()
	for _, sub := range subExprs(x) {
		c.expr(t, sub)
	}
	if slicesOutOfRange(x) {
		return
	}
	// The interpreter propagates an X operand pessimistically, so X read
	// as 0 is only the lowering's semantics one operator at a time:
	// compare only when every operand is two-state.
	for _, sub := range subExprs(x) {
		if sub.Eval(c).HasUnknown() {
			return
		}
	}
	term := c.lower(x)
	got := FoldTerm(term, c.bind, nil)
	if got.Kind != smt.KConst {
		return // a memory read or an X constant: unconstrained by design
	}
	want := xAsZero(x.Eval(c))
	if !got.Val.Eq4(want) {
		t.Fatalf("%s: %#v\nlowered %s folds to %s, interpreter gives %s",
			c.d.Name, x, term, got.Val, want)
	}
	if b, ok := x.(elab.Bin); ok && (b.Op == elab.OpShl || b.Op == elab.OpShr || b.Op == elab.OpAshr) {
		c.shifts++
	}
	c.checked++
	if c.solveEvery > 0 && c.checked%c.solveEvery == 0 {
		c.solve(t, x, term, want)
	}
}

// solve pins every variable of the unfolded term and asks the solver
// for its value, checking the bit-blaster's encoding of each operator.
func (c *lowerCheck) solve(t *testing.T, x elab.Expr, term *smt.Term, want logic.BV) {
	t.Helper()
	s := smt.NewSolver()
	widths := map[string]int{}
	CollectVars(term, widths)
	names := make([]string, 0, len(widths))
	for name := range widths {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := s.Var(name, widths[name])
		if b, ok := c.bind[name]; ok {
			s.Assert(smt.Eq(v, b))
		}
	}
	out := s.Var("out", term.Width())
	s.Assert(smt.Eq(out, term))
	if s.Solve() != smt.Sat {
		t.Fatalf("%s: %#v\npinned lowering %s is unsat", c.d.Name, x, term)
	}
	if got := s.Model()["out"]; !got.Eq4(want) {
		t.Fatalf("%s: %#v\nsolver gives %s for %s, interpreter %s", c.d.Name, x, got, term, want)
	}
	c.solved++
}

func (c *lowerCheck) target(t *testing.T, tg elab.Target) {
	t.Helper()
	switch n := tg.(type) {
	case elab.TBit:
		c.expr(t, n.BitE)
	case elab.TMem:
		c.expr(t, n.Addr)
	case elab.TCat:
		for _, p := range n.Parts {
			c.target(t, p)
		}
	}
}

func (c *lowerCheck) stmts(t *testing.T, ss []elab.Stmt) {
	t.Helper()
	for _, s := range ss {
		switch n := s.(type) {
		case elab.SAssign:
			c.expr(t, n.RHS)
			c.target(t, n.LHS)
		case elab.SIf:
			c.expr(t, n.Cond)
			c.stmts(t, n.Then)
			c.stmts(t, n.Else)
		case elab.SCase:
			c.expr(t, n.Subject)
			for _, item := range n.Items {
				for _, m := range item.Matches {
					c.expr(t, m)
				}
				c.stmts(t, item.Body)
			}
			c.stmts(t, n.Default)
		}
	}
}

// checkGenerated checks every expression of diff.Generate(seed) under a
// binding drawn from the same seed.
func checkGenerated(t *testing.T, seed int64, solveEvery int) *lowerCheck {
	t.Helper()
	d := diff.Generate(seed)
	c := newLowerCheck(d, rand.New(rand.NewSource(seed)), solveEvery)
	for _, p := range d.Procs {
		c.stmts(t, p.Body)
	}
	return c
}

// TestLowerMatchesEval pins the one IR-to-solver lowering to the
// interpreter over random designs covering every expression form:
// under a two-state binding, each lowered (sub)expression folds to the
// interpreter's value with X read as 0, and a sample of them solves to
// it too.
func TestLowerMatchesEval(t *testing.T) {
	var checked, solved, shifts int
	for seed := int64(0); seed < 40; seed++ {
		c := checkGenerated(t, seed, 16)
		checked += c.checked
		solved += c.solved
		shifts += c.shifts
	}
	if checked < 1000 || solved < 50 || shifts < 50 {
		t.Fatalf("sweep too thin: %d expressions checked, %d solved, %d shifts", checked, solved, shifts)
	}
}

// TestLowerShiftCases pins the two shift semantics the lowering used
// to get wrong: >>> fills from the MSB, and an amount wider than the
// operand is not truncated (4'd1 << 8'd16 is 0, not 1).
func TestLowerShiftCases(t *testing.T) {
	d := &elab.Design{Name: "shifts", Signals: []*elab.Signal{
		{Index: 0, Name: "x", Width: 4},
		{Index: 1, Name: "amt", Width: 8},
	}}
	c := &lowerCheck{d: d, vals: []logic.BV{logic.FromUint64(4, 0b1000), logic.FromUint64(8, 16)}, solveEvery: 1}
	c.bind = map[string]*smt.Term{"s0": smt.Const(c.vals[0]), "s1": smt.Const(c.vals[1])}
	x := elab.Sig{Idx: 0, W: 4}
	amt := elab.Sig{Idx: 1, W: 8}
	one := elab.Const{V: logic.FromUint64(1, 1)}
	for _, e := range []elab.Expr{
		elab.Bin{Op: elab.OpAshr, X: x, Y: one, W: 4},
		elab.Bin{Op: elab.OpShl, X: elab.Const{V: logic.FromUint64(4, 1)}, Y: amt, W: 4},
		elab.Bin{Op: elab.OpShr, X: x, Y: amt, W: 4},
		elab.Bin{Op: elab.OpAshr, X: x, Y: amt, W: 4},
		elab.BitSel{X: x, Idx: amt},
	} {
		c.expr(t, e)
	}
	if c.shifts != 4 || c.solved != c.checked {
		t.Fatalf("%d shifts checked, %d of %d expressions solved; want 4 and all", c.shifts, c.solved, c.checked)
	}
}

// FuzzLowerMatchesEval extends TestLowerMatchesEval to arbitrary
// generator seeds.
func FuzzLowerMatchesEval(f *testing.F) {
	for seed := int64(0); seed < 40; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkGenerated(t, seed, 8)
	})
}
