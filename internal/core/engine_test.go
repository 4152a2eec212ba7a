package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cov"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/logic"
	"repro/internal/props"
)

// A deep FSM with a narrow trigger chain: random fuzzing stalls on the
// magic-value comparisons, while symbolic guidance solves them. The bug
// (st == 5 with leak asserted) hides behind three exact 8-bit matches.
const deepSrc = `
module deep (input clk_i, input rst_ni, input [7:0] k, output reg [2:0] st,
             output reg leak);
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      st <= 3'd0;
      leak <= 1'b0;
    end else begin
      case (st)
        3'd0: if (k == 8'hA7) st <= 3'd1;
        3'd1: if (k == 8'h3C) st <= 3'd2;
              else st <= 3'd0;
        3'd2: if (k == 8'h5E) st <= 3'd3;
              else st <= 3'd0;
        3'd3: st <= 3'd4;
        3'd4: begin
          st <= 3'd5;
          leak <= 1'b1;
        end
        3'd5: st <= 3'd0;
        default: st <= 3'd0;
      endcase
    end
  end
endmodule`

func deepDesign(t *testing.T) *elab.Design {
	t.Helper()
	ast, err := hdl.Parse(deepSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(ast, "deep", nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func leakProp() *props.Property {
	return &props.Property{
		Name:       "no_leak",
		Expr:       props.Not(props.Sig("leak")),
		DisableIff: props.Not(props.Sig("rst_ni")),
		CWE:        "CWE-1342",
	}
}

func TestEngineFindsDeepBug(t *testing.T) {
	eng, err := New(deepDesign(t), []*props.Property{leakProp()}, Config{
		Interval:     50,
		Threshold:    2,
		MaxVectors:   20_000,
		Seed:         1,
		UseSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bugs) == 0 {
		t.Fatalf("deep bug not found: %s", rep)
	}
	if rep.Bugs[0].Property != "no_leak" || rep.Bugs[0].Vectors == 0 {
		t.Errorf("bug record = %+v", rep.Bugs[0])
	}
	if rep.SymbolicInvocations == 0 {
		t.Error("the deep chain requires symbolic guidance")
	}
	if rep.FinalPoints == 0 || len(rep.Curve) == 0 {
		t.Errorf("coverage not recorded: %s", rep)
	}
}

func TestEngineCoversFullGraph(t *testing.T) {
	eng, err := New(deepDesign(t), nil, Config{
		Interval:     50,
		Threshold:    2,
		MaxVectors:   50_000,
		Seed:         3,
		UseSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.EdgesCovered < rep.EdgesTotal {
		t.Errorf("edges %d/%d not fully covered: %s", rep.EdgesCovered, rep.EdgesTotal, rep)
	}
	// Termination on full coverage, not budget exhaustion.
	if rep.Vectors >= 50_000 {
		t.Errorf("budget exhausted before full coverage: %s", rep)
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() *Report {
		eng, err := New(deepDesign(t), []*props.Property{leakProp()}, Config{
			Interval: 40, Threshold: 2, MaxVectors: 5000, Seed: 99, UseSnapshots: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Vectors != b.Vectors || a.FinalPoints != b.FinalPoints ||
		len(a.Bugs) != len(b.Bugs) || a.SymbolicInvocations != b.SymbolicInvocations {
		t.Errorf("non-deterministic runs:\n a=%s\n b=%s", a, b)
	}
}

func TestEngineWithoutSymbolicIsWorse(t *testing.T) {
	run := func(disable bool) *Report {
		eng, err := New(deepDesign(t), nil, Config{
			Interval: 50, Threshold: 2, MaxVectors: 8000, Seed: 7,
			UseSnapshots: true, DisableSymbolic: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	with := run(false)
	without := run(true)
	if with.EdgesCovered < without.EdgesCovered {
		t.Errorf("symbolic guidance should not reduce edge coverage: with=%s without=%s", with, without)
	}
	if without.SymbolicInvocations != 0 {
		t.Error("ablation must not invoke the solver")
	}
}

func TestEngineReplayMode(t *testing.T) {
	eng, err := New(deepDesign(t), nil, Config{
		Interval: 50, Threshold: 2, MaxVectors: 20_000, Seed: 5,
		UseSnapshots: false, // reset + input-prefix replay
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.EdgesCovered == 0 {
		t.Errorf("replay mode made no progress: %s", rep)
	}
	if rep.Replays == 0 {
		t.Fatalf("replay mode never re-entered a checkpoint: %s", rep)
	}
	// Re-entering a checkpoint replays its prefix from reset, which must
	// land the DUV back on the checkpoint's node.
	replayed := 0
	for gi := range eng.cks {
		for _, n := range eng.cks[gi].nodes {
			ck := eng.cks[gi].byNode[n]
			if len(ck.prefix) == 0 {
				continue
			}
			before := eng.report.Replays
			eng.rollback(ck)
			if eng.report.Replays != before+1 {
				t.Fatalf("rollback to graph %d node %d did not replay", gi, n)
			}
			if got := eng.cover.PrevNode(gi); got != n {
				t.Fatalf("replaying %d items landed on node %d, want %d", len(ck.prefix), got, n)
			}
			if len(eng.prefix) != len(ck.prefix) {
				t.Fatalf("replay left a %d-item prefix, want %d", len(eng.prefix), len(ck.prefix))
			}
			replayed++
		}
	}
	if replayed == 0 {
		t.Fatal("no checkpoint recorded a non-empty input prefix")
	}
}

// TestEngineSnapshotModeKeepsNoPrefix pins snapshot mode's memory
// contract: checkpoints hold a snapshot and no input prefix, and the
// engine never records the applied items.
func TestEngineSnapshotModeKeepsNoPrefix(t *testing.T) {
	eng, err := New(deepDesign(t), nil, Config{
		Interval: 50, Threshold: 2, MaxVectors: 20_000, Seed: 5, UseSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rollbacks == 0 || eng.ckCount == 0 {
		t.Fatalf("campaign never rolled back, so it checks nothing: %s", rep)
	}
	if cap(eng.prefix) != 0 {
		t.Errorf("snapshot mode recorded %d input items", cap(eng.prefix))
	}
	for gi := range eng.cks {
		for _, n := range eng.cks[gi].nodes {
			ck := eng.cks[gi].byNode[n]
			if ck.snap == nil || ck.prefix != nil {
				t.Fatalf("checkpoint graph %d node %d: snapshot %v, %d-item prefix", gi, n, ck.snap != nil, len(ck.prefix))
			}
		}
	}
}

func TestEngineVCDMode(t *testing.T) {
	eng, err := New(deepDesign(t), nil, Config{
		Interval: 30, Threshold: 2, MaxVectors: 600, Seed: 2,
		UseSnapshots: true, DumpVCD: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.VCDBytes == 0 {
		t.Error("VCD mode produced no dump bytes")
	}
}

func TestEngineExtraMonitor(t *testing.T) {
	d := deepDesign(t)
	eng, err := New(d, nil, Config{
		Interval: 30, Threshold: 2, MaxVectors: 1000, Seed: 2, UseSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := cov.NewMuxCov(0)
	eng.AttachMonitor(mux)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if mux.Points() == 0 {
		t.Error("extra monitor saw no events")
	}
}

func TestEngineCheckpointsTaken(t *testing.T) {
	eng, err := New(deepDesign(t), nil, Config{
		Interval: 50, Threshold: 2, MaxVectors: 10_000, Seed: 4, UseSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.GraphStats.Checkpoints == 0 {
		t.Skip("design has no static checkpoints")
	}
	if rep.CheckpointsTaken == 0 {
		t.Errorf("no checkpoints recorded: %s", rep)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Interval != 300 || c.Threshold != 3 || c.ResetCycles != 2 {
		t.Errorf("defaults = %+v", c)
	}
}

// TestNewLeavesCallerPins checks that New pins the reset input on its
// own copy of the CFG options: the caller's pin map, which in-process
// orchestration shares across engines, is not written.
func TestNewLeavesCallerPins(t *testing.T) {
	pin := map[string]logic.BV{"k": logic.FromUint64(8, 0xA7)}
	c := Config{Interval: 50, Threshold: 2, MaxVectors: 100, Seed: 5}
	c.CFG.Pin = pin
	if _, err := New(deepDesign(t), nil, c); err != nil {
		t.Fatal(err)
	}
	if len(pin) != 1 || !pin["k"].Eq4(logic.FromUint64(8, 0xA7)) {
		t.Errorf("caller's pin map changed to %v", pin)
	}
}

// TestEngineInterrupt pins the graceful-shutdown contract: cancelling
// the run context stops the engine promptly and yields a valid partial
// report with Interrupted set — the counters agree with a shorter
// fixed-budget run rather than being torn mid-interval.
func TestEngineInterrupt(t *testing.T) {
	eng, err := New(deepDesign(t), []*props.Property{leakProp()},
		Config{Interval: 50, Threshold: 2, MaxVectors: 1_000_000, Seed: 5,
			UseSnapshots: true, ContinueAfterCoverage: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the engine must notice before fuzzing
	rep, err := eng.RunContext(ctx)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if !rep.Interrupted {
		t.Fatal("report of a cancelled run must carry Interrupted")
	}
	if rep.Vectors >= 1_000_000 {
		t.Fatalf("engine ran to budget despite cancellation: %d vectors", rep.Vectors)
	}

	// A pre-cancelled context round-trips through the report JSON with
	// the interrupted marker visible to downstream consumers.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"interrupted":true`) {
		t.Fatalf("serialized report lacks interrupted marker: %s", data)
	}

	// An uncancelled context leaves the flag unset.
	eng2, err := New(deepDesign(t), []*props.Property{leakProp()},
		Config{Interval: 50, Threshold: 2, MaxVectors: 500, Seed: 5, UseSnapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := eng2.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Interrupted {
		t.Fatal("uncancelled run must not be marked interrupted")
	}

	// Cancellation mid-run: stop after the first interval boundary via
	// the Sync hook, then check the engine honors ctx within the loop.
	ctx3, cancel3 := context.WithCancel(context.Background())
	defer cancel3()
	boundaries := 0
	eng3, err := New(deepDesign(t), []*props.Property{leakProp()},
		Config{Interval: 50, Threshold: 2, MaxVectors: 1_000_000, Seed: 5,
			UseSnapshots: true, ContinueAfterCoverage: true,
			Sync: func(*cov.CFGCov, *Report) bool {
				boundaries++
				if boundaries == 2 {
					cancel3()
				}
				return false
			}})
	if err != nil {
		t.Fatal(err)
	}
	rep3, err := eng3.RunContext(ctx3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Interrupted {
		t.Fatal("mid-run cancellation must mark the report interrupted")
	}
	if rep3.Vectors >= 1_000_000 || rep3.Vectors == 0 {
		t.Fatalf("mid-run cancellation stopped at %d vectors", rep3.Vectors)
	}
}
