package props

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/simc"
)

func newSim(t *testing.T, src, top string) *sim.Simulator {
	t.Helper()
	ast, err := hdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(ast, top, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fakeCtx for pure expression tests.
type fakeCtx struct {
	vals map[string]logic.BV
	past map[string][]logic.BV
}

func (f *fakeCtx) Val(name string) logic.BV { return f.vals[name] }
func (f *fakeCtx) PastVal(name string, n int) logic.BV {
	h := f.past[name]
	if n-1 < len(h) {
		return h[n-1]
	}
	return logic.X(1)
}
func (f *fakeCtx) Cycle() uint64 { return 7 }

func TestExprBasics(t *testing.T) {
	c := &fakeCtx{vals: map[string]logic.BV{
		"a": logic.FromUint64(4, 5),
		"b": logic.FromUint64(4, 3),
		"x": logic.X(4),
	}}
	cases := []struct {
		name string
		e    Expr
		want logic.Bit
	}{
		{"eq-false", Eq(Sig("a"), Sig("b")), logic.L0},
		{"eq-true", Eq(Sig("a"), U(4, 5)), logic.L1},
		{"ne", Ne(Sig("a"), Sig("b")), logic.L1},
		{"lt", Lt(Sig("b"), Sig("a")), logic.L1},
		{"le", Le(Sig("a"), Sig("a")), logic.L1},
		{"and", And(B(true), B(false)), logic.L0},
		{"or", Or(B(true), B(false)), logic.L1},
		{"not", Not(B(true)), logic.L0},
		{"isunknown-yes", IsUnknown(Sig("x")), logic.L1},
		{"isunknown-no", IsUnknown(Sig("a")), logic.L0},
		{"redor", RedOr(Sig("a")), logic.L1},
		{"slice", Eq(Slice(Sig("a"), 2, 0), U(3, 5)), logic.L1},
		{"index", Eq(Index(Sig("a"), 0), U(1, 1)), logic.L1},
		{"add", Eq(Add(Sig("a"), Sig("b")), U(4, 8)), logic.L1},
		{"sub", Eq(Sub(Sig("a"), Sig("b")), U(4, 2)), logic.L1},
		{"bxor", Eq(BXor(Sig("a"), Sig("b")), U(4, 6)), logic.L1},
		{"isinside-yes", IsInside(Sig("a"), U(4, 1), U(4, 5)), logic.L1},
		{"isinside-no", IsInside(Sig("a"), U(4, 1), U(4, 2)), logic.L0},
		{"implies-vacuous", Implies(B(false), B(false)), logic.L1},
		{"implies-holds", Implies(B(true), B(true)), logic.L1},
		{"implies-fails", Implies(B(true), B(false)), logic.L0},
		{"implies-x-antecedent", Implies(Sig("x"), B(false)), logic.L1},
	}
	for _, tc := range cases {
		if got := tc.e.Eval(c).Truthy(); got != tc.want {
			t.Errorf("%s: %s = %v, want %v", tc.name, tc.e, got, tc.want)
		}
	}
}

func TestSignalsCollection(t *testing.T) {
	e := Implies(Eq(Sig("a"), Past("b", 3)), Stable("c"))
	set := map[string]int{}
	e.Signals(set)
	if set["b"] != 3 {
		t.Errorf("past depth of b = %d", set["b"])
	}
	if _, ok := set["a"]; !ok {
		t.Error("a missing")
	}
	if set["c"] != 1 {
		t.Errorf("stable depth of c = %d", set["c"])
	}
}

const fsmSrc = `
module fsm (input clk_i, input rst_ni, input go, output reg [1:0] st);
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) st <= 2'd0;
    else begin
      case (st)
        2'd0: if (go) st <= 2'd1;
        2'd1: st <= 2'd2;
        2'd2: st <= 2'd0;
        default: st <= 2'd0;
      endcase
    end
  end
endmodule`

func TestCheckerViolation(t *testing.T) {
	s := newSim(t, fsmSrc, "fsm")
	// Deliberately wrong property: st never reaches 2.
	chk := NewChecker(&Property{
		Name:       "never_two",
		Expr:       Ne(Sig("st"), U(2, 2)),
		DisableIff: Not(Sig("rst_ni")),
		CWE:        "CWE-TEST",
	})
	chk.Bind(s)
	info := sim.DetectClockReset(s.Design())
	if err := s.ApplyReset(info, 2); err != nil {
		t.Fatal(err)
	}
	_ = s.Poke("go", logic.Ones(1))
	for i := 0; i < 5; i++ {
		_ = s.Tick(info.Clock)
	}
	vs := chk.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1 (FirstOnly)", len(vs))
	}
	if vs[0].Property != "never_two" || vs[0].CWE != "CWE-TEST" || vs[0].Cycle == 0 {
		t.Errorf("violation = %+v", vs[0])
	}
}

func TestCheckerHoldingPropertyPasses(t *testing.T) {
	s := newSim(t, fsmSrc, "fsm")
	chk := NewChecker(&Property{
		Name:       "legal_states",
		Expr:       Lt(Sig("st"), U(2, 3)),
		DisableIff: Not(Sig("rst_ni")),
	})
	chk.Bind(s)
	info := sim.DetectClockReset(s.Design())
	_ = s.ApplyReset(info, 2)
	_ = s.Poke("go", logic.Ones(1))
	for i := 0; i < 10; i++ {
		_ = s.Tick(info.Clock)
	}
	if len(chk.Violations()) != 0 {
		t.Errorf("unexpected violations: %+v", chk.Violations())
	}
}

func TestPastAndStable(t *testing.T) {
	s := newSim(t, fsmSrc, "fsm")
	// After go, st goes 0 -> 1 -> 2 -> 0; check $past sees the chain:
	// st == 2 |-> $past(st) == 1.
	chk := NewChecker(&Property{
		Name:       "two_after_one",
		Expr:       Implies(Eq(Sig("st"), U(2, 2)), Eq(Past("st", 1), U(2, 1))),
		DisableIff: Not(Sig("rst_ni")),
	})
	chk.Bind(s)
	info := sim.DetectClockReset(s.Design())
	_ = s.ApplyReset(info, 2)
	_ = s.Poke("go", logic.Ones(1))
	for i := 0; i < 8; i++ {
		_ = s.Tick(info.Clock)
	}
	if len(chk.Violations()) != 0 {
		t.Errorf("chain property should hold: %+v", chk.Violations())
	}
}

func TestPastBeforeHistoryIsX(t *testing.T) {
	s := newSim(t, fsmSrc, "fsm")
	// A property over $past at cycle 0 must not fire (X antecedent).
	chk := NewChecker(&Property{
		Name: "past_guard",
		Expr: Implies(Eq(Past("st", 4), U(2, 3)), B(false)),
	})
	chk.Bind(s)
	info := sim.DetectClockReset(s.Design())
	_ = s.ApplyReset(info, 1)
	_ = s.Tick(info.Clock)
	if len(chk.Violations()) != 0 {
		t.Errorf("X history must not fire properties: %+v", chk.Violations())
	}
}

func TestCheckerReset(t *testing.T) {
	s := newSim(t, fsmSrc, "fsm")
	chk := NewChecker(&Property{
		Name:       "never_one",
		Expr:       Ne(Sig("st"), U(2, 1)),
		DisableIff: Not(Sig("rst_ni")),
	})
	chk.Bind(s)
	info := sim.DetectClockReset(s.Design())
	_ = s.ApplyReset(info, 1)
	_ = s.Poke("go", logic.Ones(1))
	for i := 0; i < 3; i++ {
		_ = s.Tick(info.Clock)
	}
	if len(chk.Violations()) != 1 {
		t.Fatalf("expected one violation, got %d", len(chk.Violations()))
	}
	chk.Reset()
	if len(chk.Violations()) != 0 {
		t.Error("reset should clear violations")
	}
	for i := 0; i < 4; i++ {
		_ = s.Tick(info.Clock)
	}
	if len(chk.Violations()) != 1 {
		t.Errorf("property should fire again after reset, got %d", len(chk.Violations()))
	}
}

func TestUnknownSignalNameIsX(t *testing.T) {
	s := newSim(t, fsmSrc, "fsm")
	chk := NewChecker(&Property{
		Name: "missing",
		Expr: Eq(Sig("does_not_exist"), U(1, 1)),
	})
	chk.Bind(s)
	info := sim.DetectClockReset(s.Design())
	_ = s.ApplyReset(info, 2)
	if len(chk.Violations()) != 0 {
		t.Error("unknown signal comparisons are X and must not fire")
	}
}

// TestAddPropertyAfterBind registers a property over a signal the
// checker has not read yet, with a deeper $past than any before it,
// after Bind: the new signal must resolve against the bound DUV and
// the history must deepen to cover $past(st, 3).
func TestAddPropertyAfterBind(t *testing.T) {
	s := newSim(t, fsmSrc, "fsm")
	chk := NewChecker(&Property{Name: "in_reset_or_not", Expr: Implies(Sig("rst_ni"), Sig("rst_ni"))})
	chk.Bind(s)
	info := sim.DetectClockReset(s.Design())
	_ = s.ApplyReset(info, 2)
	_ = s.Poke("go", logic.Ones(1))
	_ = s.Tick(info.Clock)
	chk.AddProperty(&Property{
		Name:       "not_two_before",
		Expr:       Ne(Past("st", 3), U(2, 2)),
		DisableIff: Not(Sig("rst_ni")),
	})
	if got, want := chk.Val("st"), s.Get(s.SignalIndex("st")); !got.Eq4(want) {
		t.Fatalf("Val(st) after AddProperty = %v, want %v", got, want)
	}
	// With go held, st cycles 0 -> 1 -> 2 -> 0, so the property fails
	// on the first cycle with three cycles of history at which st was
	// 2 three samples back, and not before.
	for i := 0; i < 3; i++ {
		_ = s.Tick(info.Clock)
	}
	if len(chk.Violations()) != 0 {
		t.Fatalf("fired before three cycles of history: %+v", chk.Violations())
	}
	if got := chk.PastVal("st", 3); !got.Eq4(logic.FromUint64(2, 2)) {
		t.Fatalf("PastVal(st, 3) = %v, want 2'b10", got)
	}
	for i := 0; i < 3; i++ {
		_ = s.Tick(info.Clock)
	}
	vs := chk.Violations()
	if len(vs) != 1 || vs[0].Property != "not_two_before" {
		t.Fatalf("violations = %+v, want not_two_before once", vs)
	}
}

// TestCheckerSampleSteadyStateDoesNotAllocate pins the bound read
// path on the compiled backend: once warm, a Sample whose signals hold
// still allocates nothing, through signal, $past, $stable, $isunknown
// and |-> reads, with one property already reported and skipped.
func TestCheckerSampleSteadyStateDoesNotAllocate(t *testing.T) {
	d := newSim(t, fsmSrc, "fsm").Design()
	m, err := simc.New(d)
	if err != nil {
		t.Fatal(err)
	}
	chk := NewChecker(
		&Property{Name: "out_of_reset", Expr: Sig("rst_ni"), DisableIff: IsUnknown(Sig("clk_i"))},
		&Property{Name: "st_stable", Expr: Implies(Past("rst_ni", 2), Stable("st"))},
		&Property{Name: "go_unknown", Expr: Implies(Sig("rst_ni"), IsUnknown(Sig("go")))},
	)
	info := sim.DetectClockReset(d)
	if err := m.ApplyReset(info, 2); err != nil {
		t.Fatal(err)
	}
	chk.Bind(m)
	m.Set(m.SignalIndex("go"), logic.Zero(1))
	for i := 0; i < 4; i++ {
		if err := m.Tick(info.Clock); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, chk.Sample)
	if allocs != 0 {
		t.Errorf("steady-state Sample allocates %.1f times", allocs)
	}
	vs := chk.Violations()
	if len(vs) != 1 || vs[0].Property != "go_unknown" {
		t.Fatalf("violations = %+v, want go_unknown once", vs)
	}
}

// randExpr builds a random property expression over the fsm design's
// signals (and one name it lacks) from every constructor.
func randExpr(rng *rand.Rand, depth int) Expr {
	names := []string{"st", "go", "rst_ni", "clk_i", "nope"}
	name := names[rng.Intn(len(names))]
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(5) {
		case 0:
			return Past(name, 1+rng.Intn(3))
		case 1:
			return Stable(name)
		case 2:
			return U(1+rng.Intn(3), uint64(rng.Intn(8)))
		case 3:
			return B(rng.Intn(2) == 0)
		}
		return Sig(name)
	}
	x, y := randExpr(rng, depth-1), randExpr(rng, depth-1)
	ops := []func() Expr{
		func() Expr { return Eq(x, y) }, func() Expr { return Ne(x, y) },
		func() Expr { return Lt(x, y) }, func() Expr { return Le(x, y) },
		func() Expr { return And(x, y) }, func() Expr { return Or(x, y) },
		func() Expr { return BAnd(x, y) }, func() Expr { return BOr(x, y) },
		func() Expr { return BXor(x, y) }, func() Expr { return Add(x, y) },
		func() Expr { return Sub(x, y) }, func() Expr { return Not(x) },
		func() Expr { return RedOr(x) }, func() Expr { return IsUnknown(x) },
		func() Expr { return Slice(x, 1+rng.Intn(2), rng.Intn(2)) },
		func() Expr { return Index(x, rng.Intn(2)) },
		func() Expr { return Concat(x, y, randExpr(rng, 0)) },
		func() Expr { return Implies(x, y) },
		func() Expr { return IsInside(x, y, U(2, 1)) },
	}
	return ops[rng.Intn(len(ops))]()
}

// TestBoundEvalMatchesUnbound drives random properties through a
// random walk with X inputs, rollbacks and history resets, and holds
// the checker's bound, memoized evaluation of every property to the
// unbound expression read through Ctx.
func TestBoundEvalMatchesUnbound(t *testing.T) {
	s := newSim(t, fsmSrc, "fsm")
	rng := rand.New(rand.NewSource(3))
	chk := NewChecker()
	chk.FirstOnly = false
	for i := 0; i < 60; i++ {
		p := &Property{Name: fmt.Sprint("p", i), Expr: randExpr(rng, 4)}
		if rng.Intn(3) == 0 {
			p.DisableIff = randExpr(rng, 2)
		}
		chk.AddProperty(p)
	}
	chk.Bind(s)
	info := sim.DetectClockReset(s.Design())
	_ = s.ApplyReset(info, 2)
	goVals := []logic.BV{logic.Zero(1), logic.Ones(1), logic.X(1)}
	var snap *sim.Snapshot
	for step := 0; step < 400; step++ {
		switch rng.Intn(20) {
		case 0:
			snap = s.Snapshot()
		case 1:
			if snap != nil {
				s.Restore(snap)
				chk.ResetHistory()
			}
		}
		_ = s.Poke("go", goVals[rng.Intn(len(goVals))])
		_ = s.Tick(info.Clock)
		for _, p := range chk.props {
			if got, want := p.expr.Eval(chk), p.Expr.Eval(chk); !got.Eq4(want) {
				t.Fatalf("step %d: %s = %v bound, %v unbound", step, p.Expr, got, want)
			}
			if p.disable == nil {
				continue
			}
			if got, want := p.disable.Eval(chk), p.DisableIff.Eval(chk); !got.Eq4(want) {
				t.Fatalf("step %d: disable %s = %v bound, %v unbound", step, p.DisableIff, got, want)
			}
		}
	}
	if len(chk.Violations()) == 0 {
		t.Fatal("no property ever failed: the walk checks nothing")
	}
}
