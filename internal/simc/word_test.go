package simc

import (
	"math/rand"
	"testing"

	"repro/internal/elab"
	"repro/internal/logic"
)

// randConst draws a w-bit constant: mostly two-state, sometimes with a
// few X or Z bits, sometimes all X.
func randConst(rng *rand.Rand, w int) elab.Const {
	v := logic.Rand(w, rng.Uint64)
	switch rng.Intn(4) {
	case 0:
		for n := 1 + rng.Intn(3); n > 0; n-- {
			bit := logic.LX
			if rng.Intn(2) == 0 {
				bit = logic.LZ
			}
			v = v.WithBit(rng.Intn(w), bit)
		}
	case 1:
		if rng.Intn(4) == 0 {
			v = logic.X(w)
		}
	}
	return elab.Const{V: v}
}

// TestWordKernelsMatchEval checks every one-word expression form over
// constant operands against the IR's own four-state Eval, including the
// shapes the random-IR differential rarely draws: 64-bit operands,
// slices reaching below bit 0, and dynamic starts that wrap negative.
func TestWordKernelsMatchEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	width := func() int {
		switch rng.Intn(4) {
		case 0:
			return 64
		case 1:
			return 1 + rng.Intn(4)
		}
		return 1 + rng.Intn(64)
	}
	bins := []elab.BinOp{elab.OpAdd, elab.OpSub, elab.OpMul, elab.OpAnd, elab.OpOr, elab.OpXor, elab.OpXnor,
		elab.OpEq, elab.OpNeq, elab.OpCaseEq, elab.OpCaseNeq, elab.OpLt, elab.OpLe, elab.OpGt, elab.OpGe,
		elab.OpShl, elab.OpShr, elab.OpAshr, elab.OpLAnd, elab.OpLOr}
	uns := []elab.UnOp{elab.OpNot, elab.OpLNot, elab.OpNeg, elab.OpRedAnd, elab.OpRedOr, elab.OpRedXor,
		elab.OpRedNand, elab.OpRedNor, elab.OpRedXnor}
	c := &compiler{m: &Machine{}}
	for i := 0; i < 20000; i++ {
		w := width()
		var e elab.Expr
		switch rng.Intn(9) {
		case 0:
			op := bins[rng.Intn(len(bins))]
			y := randConst(rng, w)
			switch op {
			case elab.OpShl, elab.OpShr, elab.OpAshr:
				y = elab.Const{V: logic.FromUint64(7, uint64(rng.Intn(w+8)))}
				if rng.Intn(8) == 0 {
					y = randConst(rng, width())
				}
			case elab.OpCaseEq, elab.OpCaseNeq, elab.OpLAnd, elab.OpLOr:
				if rng.Intn(2) == 0 {
					y = randConst(rng, width())
				}
			}
			e = elab.Bin{Op: op, X: randConst(rng, w), Y: y}
		case 1:
			e = elab.Un{Op: uns[rng.Intn(len(uns))], X: randConst(rng, w)}
		case 2:
			e = elab.Cond{C: randConst(rng, width()), T: randConst(rng, w), F: randConst(rng, w)}
		case 3:
			cut := rng.Intn(w)
			parts := []elab.Expr{randConst(rng, w-cut)}
			if cut > 0 {
				parts = append(parts, randConst(rng, cut))
			}
			e = elab.CatE{Parts: parts}
		case 4:
			xw := width()
			lo := rng.Intn(xw+8) - 4
			e = elab.Slice{X: randConst(rng, xw), Hi: lo + w - 1, Lo: lo}
		case 5:
			xw := width()
			e = elab.BitSel{X: randConst(rng, xw), Idx: elab.Const{V: logic.FromUint64(7, uint64(rng.Intn(xw+4)))}}
		case 6:
			xw := width()
			start := uint64(rng.Intn(xw + 4))
			if rng.Intn(3) == 0 {
				start = -uint64(rng.Intn(70)) // int(start) wraps negative
			}
			e = elab.DynSlice{X: randConst(rng, xw), Start: elab.Const{V: logic.FromUint64(64, start)}, W: w}
		case 7:
			e = elab.ZExt{X: randConst(rng, width()), W: w}
		default:
			e = elab.DynSlice{X: randConst(rng, width()), Start: randConst(rng, 3), W: w}
		}
		n := c.compileExpr(e)
		if n.word == nil {
			t.Fatalf("%#v: not lowered to one word", e)
		}
		want := e.Eval(nil)
		a, b := n.word()
		if got := logic.FromWords(n.w, []uint64{a}, []uint64{b}); !got.Eq4(want) || a&^wmask(n.w) != 0 || b&^wmask(n.w) != 0 {
			t.Fatalf("%#v:\n got %v (words %x/%x)\nwant %v", e, got, a, b, want)
		}
	}
}
