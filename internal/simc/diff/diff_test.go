package diff

import (
	"encoding/binary"
	"testing"

	"repro/internal/analysis"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/simc"
	"repro/internal/smt"
)

// TestDiffBuiltinDesigns runs the full lockstep differential — values,
// memories, snapshots, and the branch-event stream — over every builtin
// benchmark with random stimulus including X/Z injection.
func TestDiffBuiltinDesigns(t *testing.T) {
	for _, b := range designs.AllBenchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			d, err := b.Elaborate()
			if err != nil {
				t.Fatalf("elaborate: %v", err)
			}
			opts := Options{Cycles: 48, XZEveryN: 8, CompareEvents: true}
			if err := Run(d, 0x5eed+int64(len(b.Name)), opts); err != nil {
				t.Fatalf("backends diverged: %v", err)
			}
		})
	}
}

// TestShiftByAmountPast64Bits pins a fully defined shift amount of 2^64
// or more: every bit shifts out, so << and >> give 0 and >>> gives the
// MSB fill. The interpreter, the compiled backend and the constant
// solver fold must all agree; none may read the amount as unknown.
func TestShiftByAmountPast64Bits(t *testing.T) {
	const src = `
module wshift(input [3:0] x, input [69:0] amt,
  output [3:0] shl, output [3:0] shr, output [3:0] ashr);
  assign shl = x << amt;
  assign shr = x >> amt;
  assign ashr = x >>> amt;
endmodule`
	ast, err := hdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(ast, "wshift", nil)
	if err != nil {
		t.Fatal(err)
	}
	x := logic.FromUint64(4, 0b1001)
	amt := logic.Zero(70).WithBit(65, logic.L1)
	want := map[string]logic.BV{
		"shl": logic.Zero(4), "shr": logic.Zero(4), "ashr": logic.FromUint64(4, 0b1111),
	}

	si, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := simc.New(d)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]sim.DUV{"sim": si, "simc": mc} {
		b.Set(b.SignalIndex("x"), x)
		b.Set(b.SignalIndex("amt"), amt)
		if err := b.Settle(); err != nil {
			t.Fatalf("%s settle: %v", name, err)
		}
		for out, w := range want {
			if got := b.Get(b.SignalIndex(out)); !got.Eq4(w) {
				t.Errorf("%s: %s = %v, want %v", name, out, got, w)
			}
		}
	}

	for op, out := range map[elab.BinOp]string{elab.OpShl: "shl", elab.OpShr: "shr", elab.OpAshr: "ashr"} {
		term := analysis.Shift(op, smt.Const(x), smt.Const(amt))
		if term.Kind != smt.KConst || !term.Val.Eq4(want[out]) {
			t.Errorf("smt fold: %s = %v, want %v", out, term, want[out])
		}
	}
}

// TestDiffRandomIR runs the lockstep differential over generated IR
// covering every expression, target, and statement form.
func TestDiffRandomIR(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		d := Generate(seed)
		opts := Options{Cycles: 32, XZEveryN: 4, CompareEvents: true}
		if err := Run(d, seed*7919+13, opts); err != nil {
			t.Fatalf("seed %d: backends diverged: %v", seed, err)
		}
	}
}

// TestSnapshotTransfersBetweenBackends restores an interpreter snapshot
// into a compiled machine (and back) and checks the states agree: the
// checkpoint format is backend-independent.
func TestSnapshotTransfersBetweenBackends(t *testing.T) {
	var d *elab.Design
	info := sim.ResetInfo{Clock: -1}
	for _, b := range designs.AllBenchmarks() {
		bd, err := b.Elaborate()
		if err != nil {
			t.Fatalf("elaborate %s: %v", b.Name, err)
		}
		if bi := sim.DetectClockReset(bd); bi.Clock >= 0 {
			d, info = bd, bi
			break
		}
	}
	if d == nil {
		t.Skip("no clocked builtin design")
	}
	si, err := sim.New(d)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	if err := si.ApplyReset(info, 2); err != nil {
		t.Fatalf("reset: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := si.Tick(info.Clock); err != nil {
			t.Fatalf("tick: %v", err)
		}
	}
	mc, err := simc.New(d)
	if err != nil {
		t.Fatalf("simc.New: %v", err)
	}
	mc.Restore(si.Snapshot())
	for i := range d.Signals {
		if !si.Get(i).Eq4(mc.Get(i)) {
			t.Fatalf("signal %s differs after restore: interp=%s compiled=%s",
				d.Signals[i].Name, si.Get(i), mc.Get(i))
		}
	}
	// Round-trip the other way.
	si2, err := sim.New(d)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	si2.Restore(mc.Snapshot())
	for i := range d.Signals {
		if !si2.Get(i).Eq4(mc.Get(i)) {
			t.Fatalf("signal %s differs after reverse restore", d.Signals[i].Name)
		}
	}
}

// FuzzSimDiff is the fuzz form of the differential: fuzz input picks
// the design seed, the stimulus seed, and the X/Z injection rate; any
// observable divergence between the backends fails.
func FuzzSimDiff(f *testing.F) {
	seedCase := func(gen, stim uint64, xz uint8) []byte {
		var buf [17]byte
		binary.LittleEndian.PutUint64(buf[0:], gen)
		binary.LittleEndian.PutUint64(buf[8:], stim)
		buf[16] = xz
		return buf[:]
	}
	f.Add(seedCase(1, 2, 4))
	f.Add(seedCase(7, 99, 0))
	f.Add(seedCase(42, 42, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 17 {
			return
		}
		genSeed := int64(binary.LittleEndian.Uint64(data[0:]))
		stimSeed := int64(binary.LittleEndian.Uint64(data[8:]))
		xz := int(data[16]) % 9
		d := Generate(genSeed)
		opts := Options{Cycles: 16, XZEveryN: xz, CompareEvents: true}
		if err := Run(d, stimSeed, opts); err != nil {
			t.Fatalf("gen seed %d stim seed %d: %v", genSeed, stimSeed, err)
		}
	})
}
