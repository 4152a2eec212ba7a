package props_test

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/logic"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/uvm"
)

// TestCheckerReadsMatchNameLookup pins Checker.Val and PastVal, for
// every signal name of opentitan_mini plus one the design lacks, on
// both backends, to the name-keyed semantics: Val is the DUV's current
// value (X for an unknown name), and PastVal(name, n) is the value n
// samples back when a property reads name and that much history has
// been kept since the last history reset, X otherwise. The expected
// values come from an independent per-cycle record of Get.
func TestCheckerReadsMatchNameLookup(t *testing.T) {
	b := designs.OpenTitanMini(nil) // with its planted bugs, so properties fire
	d, err := b.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	read := map[string]int{}
	for _, p := range b.Properties {
		p.Expr.Signals(read)
		if p.DisableIff != nil {
			p.DisableIff.Signals(read)
		}
	}
	depth := 2
	for _, n := range read {
		depth = max(depth, n+1)
	}
	names := []string{"no_such_signal"}
	for _, sig := range d.Signals {
		names = append(names, sig.Name)
	}
	for _, backend := range []string{"interp", "compiled"} {
		env, err := uvm.NewEnv(d, uvm.EnvConfig{Seed: 5, Properties: b.Properties, SimBackend: backend})
		if err != nil {
			t.Fatal(err)
		}
		chk := env.Agent.Monitor.Checker
		// hist[k] is every signal's value at the k-th sample since the
		// last history reset; the checker samples before this listener.
		var hist [][]logic.BV
		env.Sim.OnCycle(func(s sim.DUV) {
			vals := make([]logic.BV, len(d.Signals))
			for i := range vals {
				vals[i] = s.Get(i)
			}
			hist = append(hist, vals)
		})
		if err := env.Reset(); err != nil {
			t.Fatal(err)
		}
		var snap *sim.Snapshot
		for step := 0; step < 120; step++ {
			switch step {
			case 40:
				snap = env.Sim.Snapshot()
			case 80:
				// A rollback as the engine makes it.
				env.Sim.Restore(snap)
				chk.ResetHistory()
				hist = nil
			}
			if _, err := env.Step(); err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				idx := env.Sim.SignalIndex(name)
				want := logic.X(1)
				if idx >= 0 {
					want = env.Sim.Get(idx)
				}
				if got := chk.Val(name); !got.Eq4(want) {
					t.Fatalf("%s step %d: Val(%s) = %v, want %v", backend, step, name, got, want)
				}
				for n := 1; n <= depth+1; n++ {
					want := logic.X(1)
					if _, ok := read[name]; ok && idx >= 0 && n <= depth && n <= len(hist) {
						want = hist[len(hist)-n][idx]
					}
					if got := chk.PastVal(name, n); !got.Eq4(want) {
						t.Fatalf("%s step %d: PastVal(%s, %d) = %v, want %v", backend, step, name, n, got, want)
					}
				}
			}
		}
		if len(chk.Violations()) == 0 {
			t.Fatalf("%s: no property fired, so no reported property was skipped", backend)
		}
	}
}

var _ props.Ctx = (*props.Checker)(nil)
