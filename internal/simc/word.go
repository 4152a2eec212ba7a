package simc

import (
	"fmt"
	"math/bits"

	"repro/internal/elab"
)

// One-word kernels: each mirrors a pval kernel (and so a logic.BV
// operator) bit-for-bit on values of at most 64 bits held as an
// (aval, bval) pair, with the bits above the width zero.

// wmask is the mask of the low n bits (0 for n <= 0, all for n >= 64).
func wmask(n int) uint64 {
	switch {
	case n <= 0:
		return 0
	case n >= 64:
		return ^uint64(0)
	}
	return uint64(1)<<n - 1
}

// span is the mask of bits lo..hi, clipped to the word.
func span(lo, hi int) uint64 { return wmask(hi+1) &^ wmask(lo) }

// shiftBy shifts left by s, or right by -s when s is negative.
func shiftBy(v uint64, s int) uint64 {
	if s >= 0 {
		return v << uint(s)
	}
	return v >> uint(-s)
}

func b2w(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// truthWord is pval.truthy for one word.
func truthWord(a, b uint64) int {
	switch {
	case a&^b != 0:
		return tOne
	case b != 0:
		return tX
	}
	return tZero
}

// extractWord reads bits lo.. of an xw-bit value into a result with
// valid-bit mask m; positions outside the value read X (mirrors
// logic.BV.Extract).
func extractWord(a, b uint64, xw, lo int, m uint64) (uint64, uint64) {
	if lo <= -64 || lo >= xw {
		return m, m
	}
	in := span(-lo, xw-lo-1) & m
	oor := m &^ in
	return shiftBy(a, -lo)&in | oor, shiftBy(b, -lo)&in | oor
}

// wordUn lowers a unary operator over an xw-bit one-word operand.
func wordUn(op elab.UnOp, xf wordF, xw int) wordF {
	m := wmask(xw)
	switch op {
	case elab.OpNot:
		return func() (uint64, uint64) {
			a, b := xf()
			return (^a&^b | b) & m, b
		}
	case elab.OpNeg:
		return func() (uint64, uint64) {
			a, b := xf()
			if b != 0 {
				return m, m
			}
			return -a & m, 0
		}
	case elab.OpLNot:
		return func() (uint64, uint64) {
			switch truthWord(xf()) {
			case tOne:
				return 0, 0
			case tZero:
				return 1, 0
			}
			return 1, 1
		}
	case elab.OpRedAnd, elab.OpRedNand:
		invert := op == elab.OpRedNand
		return func() (uint64, uint64) {
			a, b := xf()
			switch {
			case ^a&^b&m != 0:
				return b2w(invert), 0
			case b != 0:
				return 1, 1
			}
			return b2w(!invert), 0
		}
	case elab.OpRedOr, elab.OpRedNor:
		invert := op == elab.OpRedNor
		return func() (uint64, uint64) {
			a, b := xf()
			switch {
			case a&^b != 0:
				return b2w(!invert), 0
			case b != 0:
				return 1, 1
			}
			return b2w(invert), 0
		}
	case elab.OpRedXor, elab.OpRedXnor:
		invert := op == elab.OpRedXnor
		return func() (uint64, uint64) {
			a, b := xf()
			if b != 0 {
				return 1, 1
			}
			return b2w((bits.OnesCount64(a)&1 == 1) != invert), 0
		}
	}
	panic(fmt.Sprintf("simc: unknown unop %d", op))
}

// wordBin lowers a binary operator over one-word operands of widths xw
// and yw.
func wordBin(op elab.BinOp, xf, yf wordF, xw, yw int) wordF {
	m := wmask(xw)
	switch op {
	case elab.OpAdd, elab.OpSub, elab.OpMul:
		return func() (uint64, uint64) {
			xa, xb := xf()
			ya, yb := yf()
			if xb|yb != 0 {
				return m, m
			}
			switch op {
			case elab.OpAdd:
				return (xa + ya) & m, 0
			case elab.OpSub:
				return (xa - ya) & m, 0
			}
			return xa * ya & m, 0
		}
	case elab.OpAnd:
		return func() (uint64, uint64) {
			xa, xb := xf()
			ya, yb := yf()
			one := xa &^ xb & (ya &^ yb)
			unk := ^(one | ^xa&^xb | ^ya&^yb) & m
			return one | unk, unk
		}
	case elab.OpOr:
		return func() (uint64, uint64) {
			xa, xb := xf()
			ya, yb := yf()
			one := xa&^xb | ya&^yb
			unk := ^(one | ^xa&^xb&(^ya&^yb)) & m
			return one | unk, unk
		}
	case elab.OpXor, elab.OpXnor:
		var inv uint64
		if op == elab.OpXnor {
			inv = ^uint64(0)
		}
		return func() (uint64, uint64) {
			xa, xb := xf()
			ya, yb := yf()
			unk := xb | yb
			return (xa^ya^inv)&^unk&m | unk, unk
		}
	case elab.OpEq, elab.OpNeq, elab.OpLt, elab.OpLe, elab.OpGt, elab.OpGe:
		return func() (uint64, uint64) {
			xa, xb := xf()
			ya, yb := yf()
			if xb|yb != 0 {
				return 1, 1
			}
			var r bool
			switch op {
			case elab.OpEq:
				r = xa == ya
			case elab.OpNeq:
				r = xa != ya
			case elab.OpLt:
				r = xa < ya
			case elab.OpLe:
				r = xa <= ya
			case elab.OpGt:
				r = xa > ya
			default:
				r = xa >= ya
			}
			return b2w(r), 0
		}
	case elab.OpCaseEq, elab.OpCaseNeq:
		sameW, invert := xw == yw, op == elab.OpCaseNeq
		return func() (uint64, uint64) {
			xa, xb := xf()
			ya, yb := yf()
			return b2w((sameW && xa == ya && xb == yb) != invert), 0
		}
	case elab.OpShl, elab.OpShr:
		left := op == elab.OpShl
		return func() (uint64, uint64) {
			n, nb := yf()
			if nb != 0 {
				return m, m
			}
			if n >= uint64(xw) {
				return 0, 0
			}
			xa, xb := xf()
			if left {
				return xa << n & m, xb << n & m
			}
			return xa >> n, xb >> n
		}
	case elab.OpAshr:
		// The vacated top k = min(amount, width) bits take the operand's
		// original four-state MSB.
		top := uint(xw - 1)
		return func() (uint64, uint64) {
			n, nb := yf()
			if nb != 0 {
				return m, m
			}
			k := min(n, uint64(xw))
			fill := m &^ wmask(xw-int(k))
			xa, xb := xf()
			return xa>>k | -(xa>>top&1)&fill, xb>>k | -(xb>>top&1)&fill
		}
	case elab.OpLAnd, elab.OpLOr:
		and := op == elab.OpLAnd
		return func() (uint64, uint64) {
			tx, ty := truthWord(xf()), truthWord(yf())
			if and {
				switch {
				case tx == tZero || ty == tZero:
					return 0, 0
				case tx == tOne && ty == tOne:
					return 1, 0
				}
			} else {
				switch {
				case tx == tOne || ty == tOne:
					return 1, 0
				case tx == tZero && ty == tZero:
					return 0, 0
				}
			}
			return 1, 1
		}
	}
	panic(fmt.Sprintf("simc: unknown binop %d", op))
}
