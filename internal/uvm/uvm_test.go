package uvm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/logic"
	"repro/internal/props"
	"repro/internal/smt"
)

const duvSrc = `
module duv (input clk_i, input rst_ni, input [7:0] data, input [3:0] op,
            output reg [7:0] acc);
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) acc <= 8'd0;
    else begin
      case (op)
        4'd1: acc <= acc + data;
        4'd2: acc <= acc - data;
        4'd3: acc <= data;
        default: acc <= acc;
      endcase
    end
  end
endmodule`

// field returns an item's value for name (the zero BV when absent).
func field(it *Item, name string) logic.BV {
	v, _ := it.Get(name)
	return v
}

func mkDesign(t *testing.T, src, top string) *elab.Design {
	t.Helper()
	ast, err := hdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(ast, top, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEnvConstruction(t *testing.T) {
	d := mkDesign(t, duvSrc, "duv")
	env, err := NewEnv(d, EnvConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Sequencer fields exclude clk/rst.
	names := map[string]bool{}
	for _, f := range env.Agent.Sequencer.Fields {
		names[f.Name] = true
	}
	if !names["data"] || !names["op"] {
		t.Errorf("fields = %v", names)
	}
	if names["clk_i"] || names["rst_ni"] {
		t.Errorf("clock/reset leaked into fields: %v", names)
	}
	if env.ClockInfo.Clock < 0 || env.ClockInfo.Reset < 0 {
		t.Errorf("clock/reset not detected: %+v", env.ClockInfo)
	}
}

func TestRandomStimulusRuns(t *testing.T) {
	d := mkDesign(t, duvSrc, "duv")
	env, err := NewEnv(d, EnvConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Reset(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := env.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if env.Agent.Sequencer.Generated != 50 {
		t.Errorf("generated = %d", env.Agent.Sequencer.Generated)
	}
	// acc should be defined (reset happened) and outputs observed.
	if v, ok := env.Agent.Monitor.Observations["acc"]; !ok || !v.Valid() {
		t.Errorf("acc not observed: %v", v)
	}
	if len(env.Scoreboard.Observations) == 0 {
		t.Error("scoreboard empty")
	}
}

func TestConstrainedRandomization(t *testing.T) {
	d := mkDesign(t, duvSrc, "duv")
	env, err := NewEnv(d, EnvConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	seq := env.Agent.Sequencer
	// Listing 3 style: constrain op to the ADD opcode.
	seq.AddConstraint(func(vars map[string]*smt.Term) *smt.Term {
		return smt.Eq(vars["op"], smt.ConstUint(4, 1))
	})
	seq.AddConstraint(func(vars map[string]*smt.Term) *smt.Term {
		return smt.Ult(vars["data"], smt.ConstUint(8, 100))
	})
	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		it := seq.NextItem()
		if v, _ := field(it, "op").Uint64(); v != 1 {
			t.Fatalf("op = %d, want 1", v)
		}
		dv, _ := field(it, "data").Uint64()
		if dv >= 100 {
			t.Fatalf("data = %d violates constraint", dv)
		}
		seen[dv] = true
	}
	if len(seen) < 5 {
		t.Errorf("constrained randomization not diverse: %d distinct values", len(seen))
	}
	seq.ClearConstraints()
	it := seq.NextItem()
	if it == nil {
		t.Fatal("nil item after clearing constraints")
	}
}

func TestUnsatisfiableConstraintFallsBack(t *testing.T) {
	d := mkDesign(t, duvSrc, "duv")
	env, err := NewEnv(d, EnvConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	seq := env.Agent.Sequencer
	seq.AddConstraint(func(vars map[string]*smt.Term) *smt.Term {
		return smt.And(smt.Eq(vars["op"], smt.ConstUint(4, 1)),
			smt.Eq(vars["op"], smt.ConstUint(4, 2)))
	})
	if it := seq.NextItem(); it == nil || !field(it, "op").Valid() {
		t.Fatal("sequencer must fall back to random stimulus")
	}
}

func TestPinnedReplay(t *testing.T) {
	d := mkDesign(t, duvSrc, "duv")
	env, err := NewEnv(d, EnvConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	seq := env.Agent.Sequencer
	want := &Item{Fields: []Field{
		{"data", logic.FromUint64(8, 0x55)},
		{"op", logic.FromUint64(4, 3)},
	}}
	seq.PinNext(want)
	if seq.PendingPinned() != 1 {
		t.Fatal("pin not queued")
	}
	got := seq.NextItem()
	if !field(got, "data").Eq4(field(want, "data")) || !field(got, "op").Eq4(field(want, "op")) {
		t.Errorf("replayed item mismatch: %+v", got.Fields)
	}
	if seq.PendingPinned() != 0 {
		t.Error("pin queue not drained")
	}
}

func TestDriverAppliesItem(t *testing.T) {
	d := mkDesign(t, duvSrc, "duv")
	env, err := NewEnv(d, EnvConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Reset(); err != nil {
		t.Fatal(err)
	}
	// Load acc with 0x42 via op=3 (load).
	it := &Item{Fields: []Field{
		{"data", logic.FromUint64(8, 0x42)},
		{"op", logic.FromUint64(4, 3)},
	}}
	if err := env.Agent.Driver.Apply(it); err != nil {
		t.Fatal(err)
	}
	acc, _ := env.Sim.Peek("acc")
	if v, _ := acc.Uint64(); v != 0x42 {
		t.Errorf("acc = %v", acc)
	}
	// An unknown field fails the item after exactly the fields sorted
	// before it: data is driven, op is not.
	bad := &Item{Fields: []Field{
		{"data", logic.FromUint64(8, 0x17)},
		{"nope", logic.Zero(1)},
		{"op", logic.FromUint64(4, 1)},
	}}
	err = env.Agent.Driver.Apply(bad)
	if want := `uvm: item field "nope" does not match an input port`; fmt.Sprint(err) != want {
		t.Errorf("unknown field: error %v, want %q", err, want)
	}
	if v, _ := env.Sim.Peek("data"); !v.Eq4(logic.FromUint64(8, 0x17)) {
		t.Errorf("data = %v, want the field sorted before the unknown one driven", v)
	}
	if v, _ := env.Sim.Peek("op"); !v.Eq4(logic.FromUint64(4, 3)) {
		t.Errorf("op = %v, want the field sorted after the unknown one left alone", v)
	}
	// Hand-built fields out of name order, or naming a field twice, are
	// rejected before any is driven.
	for _, fields := range [][]Field{
		{{"op", logic.FromUint64(4, 2)}, {"data", logic.FromUint64(8, 0x33)}},
		{{"data", logic.FromUint64(8, 0x33)}, {"data", logic.FromUint64(8, 0x34)}},
	} {
		if err := env.Agent.Driver.Apply(&Item{Fields: fields}); err == nil || !strings.Contains(err.Error(), "not sorted by unique name") {
			t.Errorf("fields %v: error %v, want a sortedness error", fields, err)
		}
		if v, _ := env.Sim.Peek("data"); !v.Eq4(logic.FromUint64(8, 0x17)) {
			t.Errorf("fields %v: data = %v, rejected item was partly driven", fields, v)
		}
	}
}

func TestItemSetKeepsNamesSortedAndUnique(t *testing.T) {
	it := &Item{}
	for i, name := range []string{"m", "c", "x", "a", "m", "c", "z"} {
		it.Set(name, logic.FromUint64(8, uint64(i)))
	}
	var names []string
	for _, f := range it.Fields {
		names = append(names, f.Name)
	}
	if got := strings.Join(names, ","); got != "a,c,m,x,z" {
		t.Fatalf("names %s, want a,c,m,x,z", got)
	}
	for name, want := range map[string]uint64{"a": 3, "c": 5, "m": 4, "x": 2, "z": 6} {
		if v, ok := it.Get(name); !ok || !v.Eq4(logic.FromUint64(8, want)) {
			t.Errorf("%s = %v (present %v), want %d", name, v, ok, want)
		}
	}
	if _, ok := it.Get("b"); ok {
		t.Error("Get found an absent field")
	}
}

// TestSequencerStreamPinned pins randomItem and Mutate output for a
// fixed seed to the values the map-backed Item produced: storing fields
// name-sorted must not change what the sequencer draws.
func TestSequencerStreamPinned(t *testing.T) {
	seq := NewSequencer("s", []FieldSpec{{"op", 4}, {"data", 8}, {"wide", 70}, {"b", 1}}, 42)
	want := []string{
		"b=1:1.0,;data=8:1b.0,;op=4:3.0,;wide=70:4d52f284145b9fe8.0,9.0,;",
		"b=1:0.0,;data=8:9f.0,;op=4:d.0,;wide=70:b13585884c14d6c0.0,4.0,;",
		"b=1:0.0,;data=8:e1.0,;op=4:2.0,;wide=70:ae4b9ee7818e744e.0,3d.0,;",
		"b=1:0.0,;data=8:1b.0,;op=4:1.0,;wide=70:4d52f284145b9fe8.0,9.0,;",
		"b=1:1.0,;data=8:9b.0,;op=4:d.0,;wide=70:b17585884c14d6c0.0,4.0,;",
		"b=1:0.0,;data=8:e5.0,;op=4:2.0,;wide=70:ae4b9ee7818e744a.0,3d.0,;",
		"b=1:1.0,;op=4:1.0,;",
	}
	var got []string
	var items []*Item
	for i := 0; i < 3; i++ {
		it := seq.NextItem()
		items = append(items, it)
		got = append(got, it.Key())
	}
	for _, it := range items {
		got = append(got, seq.Mutate(it).Key())
	}
	got = append(got, seq.Mutate(&Item{}).Key())
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("item %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestRandomItemAllocs bounds a random item to the item, its field
// slice and one vector per field.
func TestRandomItemAllocs(t *testing.T) {
	fields := []FieldSpec{{"op", 4}, {"data", 8}, {"wide", 70}, {"b", 1}}
	seq := NewSequencer("s", fields, 1)
	if allocs := testing.AllocsPerRun(100, func() { seq.randomItem() }); allocs > float64(2+len(fields)) {
		t.Errorf("randomItem allocates %v times, want at most %d", allocs, 2+len(fields))
	}
}

func TestMonitorPropertyIntegration(t *testing.T) {
	d := mkDesign(t, duvSrc, "duv")
	env, err := NewEnv(d, EnvConfig{
		Seed: 3,
		Properties: []*props.Property{{
			Name:       "acc_under_200",
			Expr:       props.Lt(props.Sig("acc"), props.U(8, 200)),
			DisableIff: props.Not(props.Sig("rst_ni")),
			CWE:        "CWE-000",
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Reset(); err != nil {
		t.Fatal(err)
	}
	// Force acc to 250 via load.
	env.Agent.Sequencer.PinNext(&Item{Fields: []Field{
		{"data", logic.FromUint64(8, 250)},
		{"op", logic.FromUint64(4, 3)},
	}})
	if _, err := env.Step(); err != nil {
		t.Fatal(err)
	}
	vs := env.Violations()
	if len(vs) != 1 || vs[0].Property != "acc_under_200" {
		t.Fatalf("violations = %+v", vs)
	}
}

func TestScoreboardGolden(t *testing.T) {
	d := mkDesign(t, duvSrc, "duv")
	env, err := NewEnv(d, EnvConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Golden model that always predicts acc == 0: any defined non-zero
	// observation is a mismatch.
	env.Scoreboard.Golden = func(signal string, cycle uint64) (logic.BV, bool) {
		if signal != "acc" {
			return logic.BV{}, false
		}
		return logic.Zero(8), true
	}
	if err := env.Reset(); err != nil {
		t.Fatal(err)
	}
	env.Agent.Sequencer.PinNext(&Item{Fields: []Field{
		{"data", logic.FromUint64(8, 9)},
		{"op", logic.FromUint64(4, 3)},
	}})
	_, _ = env.Step()
	_, _ = env.Step()
	if len(env.Scoreboard.Mismatches) == 0 {
		t.Error("golden mismatch not detected")
	}
}

func TestMutate(t *testing.T) {
	d := mkDesign(t, duvSrc, "duv")
	env, err := NewEnv(d, EnvConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	seq := env.Agent.Sequencer
	parent := seq.NextItem()
	child := seq.Mutate(parent)
	if child.Key() == parent.Key() {
		// Mutation flips at least one bit, so keys must differ.
		t.Error("mutation produced an identical item")
	}
	// Parent unchanged (clone semantics).
	reparent := parent.Clone()
	if parent.Key() != reparent.Key() {
		t.Error("clone changed the parent")
	}
}

func TestItemKeyDeterministic(t *testing.T) {
	a, b := &Item{}, &Item{}
	a.Set("x", logic.FromUint64(4, 1))
	a.Set("y", logic.FromUint64(4, 2))
	b.Set("y", logic.FromUint64(4, 2))
	b.Set("x", logic.FromUint64(4, 1))
	if a.Key() != b.Key() {
		t.Error("key must be order independent")
	}
}

func TestCombinationalDUV(t *testing.T) {
	src := `module cmb (input [3:0] a, input [3:0] b, output [3:0] y);
  assign y = a ^ b;
endmodule`
	d := mkDesign(t, src, "cmb")
	env, err := NewEnv(d, EnvConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if env.ClockInfo.Clock >= 0 {
		t.Fatalf("combinational design should have no clock: %+v", env.ClockInfo)
	}
	if err := env.Reset(); err != nil {
		t.Fatal(err)
	}
	env.Agent.Sequencer.PinNext(&Item{Fields: []Field{
		{"a", logic.FromUint64(4, 0b1100)},
		{"b", logic.FromUint64(4, 0b1010)},
	}})
	if _, err := env.Step(); err != nil {
		t.Fatal(err)
	}
	y, _ := env.Sim.Peek("y")
	if v, _ := y.Uint64(); v != 0b0110 {
		t.Errorf("y = %v", y)
	}
}

// phaseRecorder verifies the component tree walks phases in order.
type phaseRecorder struct {
	BaseComponent
	log *[]string
}

func (p *phaseRecorder) Phase(ph Phase) error {
	*p.log = append(*p.log, p.Name()+":"+phaseName(ph))
	return nil
}

func phaseName(p Phase) string {
	switch p {
	case BuildPhase:
		return "build"
	case ConnectPhase:
		return "connect"
	default:
		return "run"
	}
}

func TestPhaseOrdering(t *testing.T) {
	var log []string
	root := &phaseRecorder{BaseComponent: NewBaseComponent("root"), log: &log}
	child := &phaseRecorder{BaseComponent: NewBaseComponent("child"), log: &log}
	root.AddChild(child)
	if err := RunPhases(root); err != nil {
		t.Fatal(err)
	}
	want := []string{"root:build", "child:build", "root:connect", "child:connect"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("phase %d = %s, want %s", i, log[i], want[i])
		}
	}
	if len(root.Children()) != 1 {
		t.Error("child registration broken")
	}
}

type failingComponent struct{ BaseComponent }

func (f *failingComponent) Phase(p Phase) error {
	if p == ConnectPhase {
		return errBoom
	}
	return nil
}

var errBoom = fmt.Errorf("boom")

func TestPhaseErrorPropagates(t *testing.T) {
	root := &failingComponent{NewBaseComponent("bad")}
	err := RunPhases(root)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
}

func TestItemHoldCycles(t *testing.T) {
	d := mkDesign(t, duvSrc, "duv")
	env, err := NewEnv(d, EnvConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Reset(); err != nil {
		t.Fatal(err)
	}
	before := env.Sim.Cycle()
	it := &Item{Fields: []Field{
		{"data", logic.FromUint64(8, 1)},
		{"op", logic.FromUint64(4, 1)}, // accumulate
	}, Hold: 5}
	if err := env.Agent.Driver.Apply(it); err != nil {
		t.Fatal(err)
	}
	if env.Sim.Cycle()-before != 5 {
		t.Errorf("hold applied %d cycles", env.Sim.Cycle()-before)
	}
	if v, _ := env.Sim.Peek("acc"); !v.Eq4(logic.FromUint64(8, 5)) {
		t.Errorf("acc = %v, want 5 after 5 held adds", v)
	}
}
