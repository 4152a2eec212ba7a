package props

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/simc"
)

// FuzzCheckerHistory drives the fsm design on both backends through a
// walk the input decodes: go set to 0, 1 or X and a clock tick, a
// snapshot, a Restore with ResetHistory as the engine's rollback makes
// it, a checker Reset, and AddProperty with a $past deeper than any
// before, up to a depth of maxFuzzDepth. After every step, Val and PastVal(name, n), for every signal
// name, one the design lacks and every n up to the depth plus one,
// must equal an independent per-cycle record of Get since the last
// history reset: PastVal is X for a name no property reads.
func FuzzCheckerHistory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 3, 1, 2, 1, 4, 1, 1, 5, 1, 0, 2, 1, 6, 1, 1, 1, 1, 1, 1, 4, 1})
	for seed := int64(1); seed <= 3; seed++ {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		d := newSim(t, fsmSrc, "fsm").Design()
		interp, err := sim.New(d)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := simc.New(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []sim.DUV{interp, compiled} {
			checkHistoryWalk(t, s, in)
		}
	})
}

// maxFuzzDepth and maxFuzzSteps bound a FuzzCheckerHistory walk.
const maxFuzzDepth, maxFuzzSteps = 8, 1024

func checkHistoryWalk(t *testing.T, s sim.DUV, in []byte) {
	d := s.Design()
	initial := []*Property{
		{Name: "steps", Expr: Implies(Past("go", 1), Ne(Sig("st"), Past("st", 1)))},
		{Name: "known", Expr: Not(IsUnknown(Sig("nope"))), DisableIff: Not(Sig("rst_ni"))},
	}
	chk := NewChecker(initial...)
	read := map[string]int{}
	depth := 2
	addRead := func(p *Property) {
		p.Expr.Signals(read)
		if p.DisableIff != nil {
			p.DisableIff.Signals(read)
		}
		for _, n := range read {
			depth = max(depth, n+1)
		}
	}
	for _, p := range initial {
		addRead(p)
	}
	chk.Bind(s)
	// hist[k] is every signal's value at the k-th sample since the last
	// history reset; the checker samples before this listener.
	var hist [][]logic.BV
	s.OnCycle(func(s sim.DUV) {
		vals := make([]logic.BV, len(d.Signals))
		for i := range vals {
			vals[i] = s.Get(i)
		}
		hist = append(hist, vals)
	})
	info := sim.DetectClockReset(d)
	if err := s.ApplyReset(info, 2); err != nil {
		t.Fatal(err)
	}
	names := []string{"nope"}
	for _, sig := range d.Signals {
		names = append(names, sig.Name)
	}
	goVals := []logic.BV{logic.Zero(1), logic.Ones(1), logic.X(1)}
	goSig := s.SignalIndex("go")
	var snap *sim.Snapshot
	for step, x := range in[:min(len(in), maxFuzzSteps)] {
		if x%8 == 6 && depth >= maxFuzzDepth {
			x = 0
		}
		switch x % 8 {
		case 3:
			snap = s.Snapshot()
		case 4:
			if snap != nil {
				s.Restore(snap)
				chk.ResetHistory()
				hist = nil
			}
		case 5:
			chk.Reset()
			hist = nil
		case 6:
			p := &Property{Name: "deep", Expr: Ne(Past("st", depth), U(2, 3))}
			chk.AddProperty(p)
			addRead(p)
			hist = nil
		default:
			s.Set(goSig, goVals[int(x/8)%len(goVals)])
			if err := s.Tick(info.Clock); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			idx := s.SignalIndex(name)
			want := logic.X(1)
			if idx >= 0 {
				want = s.Get(idx)
			}
			if got := chk.Val(name); !got.Eq4(want) {
				t.Fatalf("step %d: Val(%s) = %v, want %v", step, name, got, want)
			}
			for n := 1; n <= depth+1; n++ {
				want := logic.X(1)
				if _, ok := read[name]; ok && idx >= 0 && n <= depth && n <= len(hist) {
					want = hist[len(hist)-n][idx]
				}
				if got := chk.PastVal(name, n); !got.Eq4(want) {
					t.Fatalf("step %d: PastVal(%s, %d) = %v, want %v", step, name, n, got, want)
				}
			}
		}
	}
}
