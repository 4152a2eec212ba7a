package cfg

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/smt"
)

func elaborate(t *testing.T, src, top string) *elab.Design {
	t.Helper()
	ast, err := hdl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := elab.Elaborate(ast, top, nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return d
}

// Paper Listing 1 ALU (abridged arms behave identically for CFG shape).
const aluSrc = `
module ALU (input nrst, input [15:0] A,
  input [15:0] B, input [3:0] op, output reg [15:0] Out);
  typedef enum logic [2:0] {INIT = 0, ADD = 1,
      SUB = 2, AND_ = 3, OR_ = 4, XOR_ = 5} state_t;
  state_t state;
  logic OPmode;
  always_comb begin : resetLogic
      if (!nrst) state = 0;
      else begin
        state = op[2:0];
        OPmode = op[3];
      end
  end
  always_comb begin : FSM
      if (OPmode) begin
          Out[15:8] = 0;
          case (state)
              INIT: Out[7:0] = 0;
              ADD:  Out[7:0] = A[7:0] + B[7:0];
              SUB:  Out[7:0] = A[7:0] - B[7:0];
              AND_: Out[7:0] = A[7:0] & B[7:0];
              OR_:  Out[7:0] = A[7:0] | B[7:0];
              XOR_: Out[7:0] = A[7:0] ^ B[7:0];
              default: Out = 0;
          endcase
      end else begin
          case (state)
              INIT: Out = 0;
              ADD:  Out = A + B;
              SUB:  Out = A - B;
              AND_: Out = A & B;
              OR_:  Out = A | B;
              XOR_: Out = A ^ B;
              default: Out = 0;
          endcase
      end
  end
endmodule`

const fsmSrc = `
module fsm (input clk_i, input rst_ni, input [1:0] cmd, output reg [1:0] out);
  typedef enum logic [1:0] {IDLE = 0, RUN = 1, WAIT_ = 2, DONE = 3} st_t;
  st_t state_q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) state_q <= IDLE;
    else begin
      case (state_q)
        IDLE:  if (cmd == 2'd1) state_q <= RUN;
        RUN:   if (cmd == 2'd2) state_q <= WAIT_;
               else if (cmd == 2'd3) state_q <= DONE;
        WAIT_: state_q <= DONE;
        DONE:  state_q <= IDLE;
        default: state_q <= IDLE;
      endcase
    end
  end
  always_comb begin
    out = state_q;
  end
endmodule`

func TestControlRegistersALU(t *testing.T) {
	d := elaborate(t, aluSrc, "ALU")
	regs := ControlRegisters(d)
	names := map[string]uint64{}
	for _, r := range regs {
		names[r.Sig.Name] = r.Domain
	}
	if _, ok := names["state"]; !ok {
		t.Errorf("state must be a control register: %v", names)
	}
	if _, ok := names["OPmode"]; !ok {
		t.Errorf("OPmode must be a control register: %v", names)
	}
	// The input nrst is read by a branch but must not count.
	if _, ok := names["nrst"]; ok {
		t.Error("input nrst must not be a control register")
	}
	// Eqn. 4: 6 enum states (declared) x 2 = 12 legal encodings; the
	// paper rounds the enum to its 3-bit space (8 x 2 = 16) — we count
	// declared members, so expect 6 x 2.
	if got := NodeSpace(regs); got != 12 {
		t.Errorf("node space = %d, want 12", got)
	}
}

func TestBuildTransitionFSM(t *testing.T) {
	d := elaborate(t, fsmSrc, "fsm")
	tr, err := BuildTransition(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Regs) != 1 || tr.Regs[0].Name != "state_q" {
		t.Fatalf("regs = %+v", tr.Regs)
	}
	next, ok := tr.Next[tr.Regs[0].Index]
	if !ok {
		t.Fatal("no next-state term for state_q")
	}
	// Solve: from IDLE with rst high, cmd==1 must give RUN.
	s := smt.NewSolver()
	DeclareVars(s, next)
	s.Assert(smt.Eq(s.Var(CurVar+"state_q", 2), smt.ConstUint(2, 0)))
	s.Assert(smt.Eq(s.Var(InVar+"rst_ni", 1), smt.True()))
	s.Assert(smt.Eq(s.Var(InVar+"cmd", 2), smt.ConstUint(2, 1)))
	z := s.Var("z", 2)
	s.Assert(smt.Eq(z, next))
	if s.Solve() != smt.Sat {
		t.Fatal("transition should be satisfiable")
	}
	if v, _ := s.Model()["z"].Uint64(); v != 1 {
		t.Errorf("next(IDLE, cmd=1) = %d, want RUN=1", v)
	}
	if tr.EqCount == 0 {
		t.Error("no dependency equations counted")
	}
}

// TestTransitionWideIndexMatchesInterpreter pins the transition
// relation to the interpreter on indices wider than their operand: an
// out-of-range dynamic bit write is dropped (elab's TBit.Assign), and
// a shift by the operand's width or more clears it, not wraps it.
func TestTransitionWideIndexMatchesInterpreter(t *testing.T) {
	d := elaborate(t, `
module wide (input clk_i, input [7:0] idx, input d, output reg [3:0] r, output reg [3:0] s);
  always_ff @(posedge clk_i) begin
    r[idx] <= d;
    s <= 4'd1 << idx;
  end
endmodule`, "wide")
	tr, err := BuildTransition(d)
	if err != nil {
		t.Fatal(err)
	}
	bind := map[string]*smt.Term{
		InVar + "idx": smt.ConstUint(8, 16),
		InVar + "d":   smt.True(),
		CurVar + "r":  smt.ConstUint(4, 0b0100),
		CurVar + "s":  smt.ConstUint(4, 0b0011),
	}
	for name, want := range map[string]uint64{"r": 0b0100, "s": 0} {
		next := analysis.FoldTerm(tr.Next[d.ByName[name].Index], bind, nil)
		if v, ok := next.Val.Uint64(); next.Kind != smt.KConst || !ok || v != want {
			t.Errorf("next %s at idx=16 = %s, want %d", name, next, want)
		}
	}
}

func buildGraph(t *testing.T, src, top string, pin map[string]logic.BV) *Graph {
	t.Helper()
	d := elaborate(t, src, top)
	tr, err := BuildTransition(d)
	if err != nil {
		t.Fatal(err)
	}
	// Reset valuation via simulation.
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	info := sim.DetectClockReset(d)
	if err := s.ApplyReset(info, 2); err != nil {
		t.Fatal(err)
	}
	reset := map[int]logic.BV{}
	for _, cr := range ControlRegisters(d) {
		reset[cr.Sig.Index] = s.Get(cr.Sig.Index)
	}
	g, err := Build(d, tr, reset, Options{Pin: pin})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildCFGFSM(t *testing.T) {
	g := buildGraph(t, fsmSrc, "fsm", map[string]logic.BV{"rst_ni": logic.Ones(1)})
	// Reachable FSM states: IDLE, RUN, WAIT_, DONE (+ out mirrors).
	if len(g.Nodes) < 4 {
		t.Fatalf("nodes = %d, want >= 4 (%s)", len(g.Nodes), g)
	}
	if len(g.Edges) < 5 {
		t.Errorf("edges = %d, want >= 5", len(g.Edges))
	}
	// RUN has successors RUN, WAIT_, DONE (cmd-dependent): a checkpoint.
	if len(g.Checkpoints) == 0 {
		t.Errorf("expected at least one checkpoint: %s", g)
	}
	st := g.Stats()
	if st.Nodes != len(g.Nodes) || st.DepEqns == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBuildCFGALU(t *testing.T) {
	g := buildGraph(t, aluSrc, "ALU", map[string]logic.BV{"nrst": logic.Ones(1)})
	// With nrst pinned high, states 0..5 and OPmode 0/1 are reachable:
	// up to 12 nodes; at least the 6 enum states in 16-bit mode.
	if len(g.Nodes) < 6 {
		t.Fatalf("nodes = %d, want >= 6 (%s)", len(g.Nodes), g)
	}
	// Every node fans out to many others: lots of checkpoints (Fig. 3).
	if len(g.Checkpoints) == 0 {
		t.Error("ALU CFG should contain checkpoints")
	}
}

func TestSolveStepFSM(t *testing.T) {
	g := buildGraph(t, fsmSrc, "fsm", map[string]logic.BV{"rst_ni": logic.Ones(1)})
	d := g.Design
	stateIdx := d.ByName["state_q"].Index
	// From IDLE reach RUN: the solver must produce cmd == 1.
	plan := g.SolveStep(
		map[int]logic.BV{stateIdx: logic.FromUint64(2, 0)},
		map[int]logic.BV{stateIdx: logic.FromUint64(2, 1)},
		nil, 0)
	if plan == nil {
		t.Fatal("no plan found")
	}
	if v, _ := plan.Inputs["cmd"].Uint64(); v != 1 {
		t.Errorf("cmd = %d, want 1", v)
	}
	// From IDLE directly to WAIT_ is impossible in one step.
	if p := g.SolveStep(
		map[int]logic.BV{stateIdx: logic.FromUint64(2, 0)},
		map[int]logic.BV{stateIdx: logic.FromUint64(2, 2)},
		nil, 0); p != nil {
		t.Error("IDLE -> WAIT_ should be unsat in one step")
	}
}

func TestSolveStepPlanDrivesSimulator(t *testing.T) {
	// End-to-end: ask the solver for inputs, drive the simulator with
	// them, and verify the FSM lands in the requested state.
	g := buildGraph(t, fsmSrc, "fsm", map[string]logic.BV{"rst_ni": logic.Ones(1)})
	d := g.Design
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	info := sim.DetectClockReset(d)
	if err := s.ApplyReset(info, 2); err != nil {
		t.Fatal(err)
	}
	stateIdx := d.ByName["state_q"].Index
	cur := map[int]logic.BV{stateIdx: s.Get(stateIdx)}
	plan := g.SolveStep(cur, map[int]logic.BV{stateIdx: logic.FromUint64(2, 1)}, nil, 0)
	if plan == nil {
		t.Fatal("no plan")
	}
	for name, v := range plan.Inputs {
		sig := d.ByName[name]
		if sig == nil || sig.Kind != elab.SigInput {
			continue
		}
		if err := s.PokeIdx(sig.Index, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Tick(info.Clock); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(stateIdx).Uint64(); v != 1 {
		t.Errorf("simulated state = %d, want RUN=1", v)
	}
}

func TestNearestCheckpointAndUncovered(t *testing.T) {
	g := buildGraph(t, fsmSrc, "fsm", map[string]logic.BV{"rst_ni": logic.Ones(1)})
	// Pick any checkpoint and verify NearestCheckpoint finds itself.
	for id := range g.Checkpoints {
		if got := g.NearestCheckpoint(id); got != id {
			t.Errorf("NearestCheckpoint(%d) = %d", id, got)
		}
		covered := map[int]bool{}
		un := g.UncoveredFrom(id, covered)
		if len(un) != len(g.Nodes[id].Out) {
			t.Errorf("all edges should be uncovered initially")
		}
		for _, e := range un {
			covered[e.ID] = true
		}
		if len(g.UncoveredFrom(id, covered)) != 0 {
			t.Error("covering all edges should empty the uncovered set")
		}
		break
	}
	if g.NearestCheckpoint(-1) != -1 || g.NearestCheckpoint(999999) != -1 {
		t.Error("out-of-range ids must return -1")
	}
}

func TestNodeOf(t *testing.T) {
	g := buildGraph(t, fsmSrc, "fsm", map[string]logic.BV{"rst_ni": logic.Ones(1)})
	if len(g.Nodes) == 0 {
		t.Fatal("empty graph")
	}
	n := g.Nodes[0]
	if got := g.NodeOf(n.Vals); got != 0 {
		t.Errorf("NodeOf(root) = %d", got)
	}
	bogus := map[int]logic.BV{}
	for _, cr := range g.Regs {
		bogus[cr.Sig.Index] = logic.Ones(cr.Sig.Width)
	}
	if got := g.NodeOf(bogus); got >= 0 && g.Nodes[got].Key != nodeKey(g.Regs, bogus) {
		t.Error("NodeOf returned a mismatched node")
	}
}

func TestGraphBounds(t *testing.T) {
	d := elaborate(t, aluSrc, "ALU")
	tr, err := BuildTransition(d)
	if err != nil {
		t.Fatal(err)
	}
	reset := map[int]logic.BV{}
	g, err := Build(d, tr, reset, Options{MaxNodes: 3, MaxSuccessors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) > 3 {
		t.Errorf("MaxNodes violated: %d", len(g.Nodes))
	}
	if !g.Truncated {
		t.Error("bounded ALU exploration should report truncation")
	}
}

func TestNodeSpaceSaturation(t *testing.T) {
	regs := []ControlReg{
		{Domain: 1 << 40},
		{Domain: 1 << 40},
	}
	if got := NodeSpace(regs); got != 1<<62 {
		t.Errorf("saturated space = %d", got)
	}
}

func TestConstBVCleansX(t *testing.T) {
	v := logic.MustFromString("1x0z")
	term := ConstBV(v)
	if term.Kind != smt.KConst {
		t.Fatal("expected constant term")
	}
	if got, _ := term.Val.Uint64(); got != 0b1000 {
		t.Errorf("cleaned = %04b", got)
	}
}
