package lint_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/lint"
)

func lintSrc(t *testing.T, src, top string, opts lint.Options) *lint.Result {
	t.Helper()
	ast, err := hdl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := elab.Elaborate(ast, top, nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return lint.Run(d, opts)
}

// findRule returns the diagnostics carrying the given rule ID.
func findRule(res *lint.Result, rule string) []lint.Diagnostic {
	var out []lint.Diagnostic
	for _, d := range res.Diags {
		if d.Rule == rule {
			out = append(out, d)
		}
	}
	return out
}

func TestCombLoopAcrossProcesses(t *testing.T) {
	src := `
module m (input a, output x);
  wire p;
  wire q;
  assign p = q ^ a;
  assign q = p;
  assign x = p;
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	ds := findRule(res, "comb-loop")
	if len(ds) == 0 {
		t.Fatalf("expected a comb-loop diagnostic, got %v", res.Diags)
	}
	if ds[0].Severity != lint.SevError {
		t.Fatalf("comb-loop should be an error, got %v", ds[0].Severity)
	}
}

func TestCombLoopSelfFeedback(t *testing.T) {
	src := `
module m (input [3:0] a, output reg [3:0] x);
  always_comb begin : acc
    x = x + a;
  end
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	ds := findRule(res, "comb-loop")
	if len(ds) != 1 {
		t.Fatalf("expected one comb-loop diagnostic, got %v", res.Diags)
	}
	if ds[0].Signal != "x" || ds[0].Proc != "acc" {
		t.Fatalf("diagnostic should anchor to x in acc, got %+v", ds[0])
	}
}

func TestCombLoopCleanReadAfterWrite(t *testing.T) {
	// state_d = state_q; case ... is the standard two-process FSM idiom
	// and must NOT be reported: state_d is assigned before being read.
	src := `
module m (input clk_i, input go, output reg s_o);
  reg state_q;
  reg state_d;
  always_comb begin : nexts
    state_d = state_q;
    if (go) state_d = ~state_d;
  end
  always_ff @(posedge clk_i) begin
    state_q <= state_d;
  end
  assign s_o = state_q;
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	if ds := findRule(res, "comb-loop"); len(ds) != 0 {
		t.Fatalf("read-after-write must not be a loop, got %v", ds)
	}
}

func TestLatchInferred(t *testing.T) {
	src := `
module m (input en, input [3:0] d, output reg [3:0] q);
  always_comb begin : hold
    if (en) q = d;
  end
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	ds := findRule(res, "latch")
	if len(ds) != 1 {
		t.Fatalf("expected one latch diagnostic, got %v", res.Diags)
	}
	if ds[0].Signal != "q" {
		t.Fatalf("latch should anchor to q, got %+v", ds[0])
	}
}

func TestLatchNotInferredWithElse(t *testing.T) {
	src := `
module m (input en, input [3:0] d, output reg [3:0] q);
  always_comb begin
    if (en) q = d;
    else q = 4'd0;
  end
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	if ds := findRule(res, "latch"); len(ds) != 0 {
		t.Fatalf("full if/else must not infer a latch, got %v", ds)
	}
}

func TestLatchNotInferredEnumExhaustiveCase(t *testing.T) {
	// The case has no default, but its arms cover the declared enum
	// domain, so no latch may be reported.
	src := `
module m (input clk_i, input go, output reg y);
  typedef enum logic [1:0] {S0 = 0, S1 = 1, S2 = 2, S3 = 3} st_t;
  st_t s;
  reg yd;
  always_comb begin : dec
    case (s)
      S0: yd = 1'b0;
      S1: yd = 1'b1;
      S2: yd = 1'b0;
      S3: yd = 1'b1;
    endcase
  end
  always_ff @(posedge clk_i) begin
    if (go) s <= S1;
    else s <= S0;
    y <= yd;
  end
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	if ds := findRule(res, "latch"); len(ds) != 0 {
		t.Fatalf("enum-exhaustive case must not infer a latch, got %v", ds)
	}
}

func TestMultiDriver(t *testing.T) {
	src := `
module m (input a, input b, output x);
  wire w;
  assign w = a;
  assign w = b;
  assign x = w;
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	ds := findRule(res, "multi-driver")
	if len(ds) != 1 {
		t.Fatalf("expected one multi-driver diagnostic, got %v", res.Diags)
	}
	if ds[0].Signal != "w" || ds[0].Severity != lint.SevError {
		t.Fatalf("multi-driver should be an error on w, got %+v", ds[0])
	}
}

func TestUnusedSignal(t *testing.T) {
	src := `
module m (input a, output x);
  wire dead;
  assign dead = a;
  assign x = a;
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	ds := findRule(res, "unused-signal")
	if len(ds) != 1 || ds[0].Signal != "dead" {
		t.Fatalf("expected unused-signal on dead, got %v", res.Diags)
	}
}

func TestUnusedSignalExternalReadWaives(t *testing.T) {
	src := `
module m (input a, output x);
  wire dead;
  assign dead = a;
  assign x = a;
endmodule`
	res := lintSrc(t, src, "m", lint.Options{
		ExternalReads: map[string]bool{"dead": true},
	})
	if ds := findRule(res, "unused-signal"); len(ds) != 0 {
		t.Fatalf("property-observed signal must not be unused, got %v", ds)
	}
}

func TestUndrivenSignal(t *testing.T) {
	src := `
module m (input a, output x);
  wire ghost;
  assign x = a & ghost;
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	ds := findRule(res, "undriven-signal")
	if len(ds) != 1 || ds[0].Signal != "ghost" {
		t.Fatalf("expected undriven-signal on ghost, got %v", res.Diags)
	}
}

func TestWidthTruncation(t *testing.T) {
	src := `
module m (input [7:0] a, input [7:0] b, output [3:0] y);
  assign y = a + b;
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	ds := findRule(res, "width-trunc")
	if len(ds) == 0 {
		t.Fatalf("expected a width-trunc diagnostic, got %v", res.Diags)
	}
	if !strings.Contains(ds[0].Msg, "8") || !strings.Contains(ds[0].Msg, "4") {
		t.Fatalf("message should name both widths, got %q", ds[0].Msg)
	}
}

func TestDeadArmEnumCase(t *testing.T) {
	// s only ever holds S0/S1 (enum domain and inferred domain agree),
	// so the 2'd3 arm can never match.
	src := `
module m (input clk_i, input go, output reg y);
  typedef enum logic [1:0] {S0 = 0, S1 = 1} st_t;
  st_t s;
  always_ff @(posedge clk_i) begin
    case (s)
      S0: begin
        y <= 1'b0;
        if (go) s <= S1;
      end
      S1: begin
        y <= 1'b1;
        s <= S0;
      end
      2'd3: y <= 1'b0;
      default: s <= S0;
    endcase
  end
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	ds := findRule(res, "dead-arm")
	if len(ds) == 0 {
		t.Fatalf("expected a dead-arm diagnostic, got %v", res.Diags)
	}
	found := false
	for _, d := range ds {
		if d.Arm == 2 {
			found = true
			if d.Branch < 0 {
				t.Fatalf("dead-arm must carry its branch ID, got %+v", d)
			}
		}
	}
	if !found {
		t.Fatalf("the 2'd3 arm (index 2) should be dead, got %v", ds)
	}
	if res.Facts == nil || len(res.Facts.DeadArms) == 0 {
		t.Fatalf("proven dead arms must be recorded in Facts")
	}
	if res.Facts.SolverQueries == 0 {
		t.Fatalf("dead-arm proofs must issue solver queries")
	}
}

func TestDeadArmUnsatIf(t *testing.T) {
	// mode is only ever 0 or 1, so mode == 2'd2 is unsatisfiable.
	src := `
module m (input clk_i, input go, output reg y);
  reg [1:0] mode;
  always_ff @(posedge clk_i) begin
    if (go) mode <= 2'd1;
    else mode <= 2'd0;
    if (mode == 2'd2) y <= 1'b1;
    else y <= 1'b0;
  end
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	ds := findRule(res, "dead-arm")
	if len(ds) != 1 || ds[0].Arm != 0 {
		t.Fatalf("expected the then-arm dead, got %v", res.Diags)
	}
}

func TestDeadArmRefinesDomains(t *testing.T) {
	// The value 3 is only assigned inside the dead arm, so after
	// refinement the inferred domain of mode must exclude it.
	src := `
module m (input clk_i, input go, output reg y);
  reg [1:0] mode;
  always_ff @(posedge clk_i) begin
    if (go) mode <= 2'd1;
    else mode <= 2'd0;
    if (mode == 2'd2) mode <= 2'd3;
    y <= mode[0];
  end
endmodule`
	ast, err := hdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(ast, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	facts := lint.AnalyzeReachability(d)
	idx := d.ByName["mode"].Index
	dom, bounded := facts.DomainOf(idx)
	if !bounded {
		t.Fatalf("mode's domain should be bounded")
	}
	for _, v := range dom {
		if v == 3 {
			t.Fatalf("refined domain must exclude the dead arm's 3, got %v", dom)
		}
	}
	if !facts.Allows(idx, 1) || facts.Allows(idx, 3) {
		t.Fatalf("Allows disagrees with domain %v", dom)
	}
}

func TestWaiverSuppresses(t *testing.T) {
	src := `
module m (input a, output x);
  wire dead;
  assign dead = a;
  assign x = a;
endmodule`
	res := lintSrc(t, src, "m", lint.Options{
		Waivers: []lint.Waiver{{Rule: "unused-signal", Match: "dead", Reason: "test"}},
	})
	if len(findRule(res, "unused-signal")) != 0 {
		t.Fatalf("waiver should suppress the finding, got %v", res.Diags)
	}
	if res.Waived != 1 {
		t.Fatalf("waived findings must be counted, got %d", res.Waived)
	}
}

func TestDiagnosticOrderingStable(t *testing.T) {
	src := `
module m (input a, input b, output x);
  wire w;
  wire dead;
  assign w = a;
  assign w = b;
  assign dead = a;
  assign x = w;
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	if len(res.Diags) < 2 {
		t.Fatalf("expected multiple diagnostics, got %v", res.Diags)
	}
	// Errors sort before warnings.
	if res.Diags[0].Rule != "multi-driver" {
		t.Fatalf("error-severity multi-driver must sort first, got %v", res.Diags)
	}
	var buf1, buf2 bytes.Buffer
	res.WriteText(&buf1)
	res2 := lintSrc(t, src, "m", lint.Options{})
	res2.WriteText(&buf2)
	if buf1.String() != buf2.String() {
		t.Fatalf("output must be deterministic:\n%s\nvs\n%s", buf1.String(), buf2.String())
	}
}

func TestAllChecksCatalogue(t *testing.T) {
	want := map[string]bool{
		"comb-loop": true, "latch": true, "multi-driver": true,
		"unused-signal": true, "width-trunc": true, "dead-arm": true,
	}
	got := map[string]bool{}
	for _, c := range lint.AllChecks() {
		if c.ID() == "" || c.Description() == "" {
			t.Fatalf("check %T missing ID or description", c)
		}
		got[c.ID()] = true
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("check catalogue missing %s (got %v)", id, got)
		}
	}
}

func TestDeadArmStaticProof(t *testing.T) {
	// mode's inferred domain is {0,1}, so "mode == 2'd2" is refuted by
	// the solver under mode's domain constraint.
	src := `
module m (input clk_i, input go, output reg y);
  reg [1:0] mode;
  always_ff @(posedge clk_i) begin
    if (go) mode <= 2'd1;
    else mode <= 2'd0;
    if (mode == 2'd2) y <= 1'b1;
    else y <= 1'b0;
  end
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	if len(findRule(res, "dead-arm")) != 1 {
		t.Fatalf("expected one dead-arm diagnostic, got %v", res.Diags)
	}
}

func TestWidthTruncSuppressedByRange(t *testing.T) {
	// cnt only ever holds {0,1,2}, so narrowing it to 2 bits drops bits
	// that are provably zero — no diagnostic. The input-fed truncation
	// in the same module must still fire.
	src := `
module m (input clk_i, input go, input [7:0] a, output reg [1:0] y, output reg [3:0] z);
  reg [7:0] cnt;
  always_ff @(posedge clk_i) begin
    if (go) cnt <= 8'd2;
    else cnt <= 8'd1;
    y <= cnt;
    z <= a;
  end
endmodule`
	res := lintSrc(t, src, "m", lint.Options{})
	ds := findRule(res, "width-trunc")
	for _, d := range ds {
		if strings.Contains(d.Msg, "truncated from 8 to 2") {
			t.Fatalf("range-proven-lossless truncation should be suppressed: %v", ds)
		}
	}
	found := false
	for _, d := range ds {
		if strings.Contains(d.Msg, "truncated from 8 to 4") {
			found = true
		}
	}
	if !found {
		t.Fatalf("unprovable truncation must still be diagnosed, got %v", ds)
	}
}
