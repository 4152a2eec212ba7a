package smt

import (
	"math/bits"
	"testing"

	"repro/internal/logic"
)

// FuzzSolver cross-checks the bit-blasting solver against brute-force
// enumeration on small-bitwidth formulas. The fuzz input drives a tiny
// stack machine that assembles a random term over three variables
// (a:2, b:3, c:1 — a 64-point joint domain), asserts its 1-bit
// reduction, and solves:
//
//   - Sat: the returned model, evaluated concretely, must satisfy the
//     constraint — the solver may never invent a model.
//   - Unsat: exhaustive search over all 64 assignments must agree —
//     the solver may never miss a solution.
//
// Together the two directions pin soundness and completeness of the
// blaster + CDCL core for every term kind the builder can emit. The
// same solver then enumerates every model under the assumption c, then
// under !c, then under c again (SolveN with Lits), and each set must
// equal the brute-force one: assumptions and guarded blocking clauses
// must neither leak into nor lose models of later queries.
func FuzzSolver(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 0, 1, 0})                            // eq(a, b)
	f.Add([]byte{4, 0, 1, 0, 9, 5, 0, 0})                // ult over an add
	f.Add([]byte{6, 0, 0, 0, 17, 5, 0, 0, 11, 2, 5, 6})  // mul, redand, ite
	f.Add([]byte{13, 0, 1, 0, 12, 5, 1, 2, 15, 5, 1, 0}) // concat, extract, shl
	f.Add([]byte{19, 1, 0, 0, 3, 5, 2, 0, 10, 5, 3, 0})  // redxor, xor, ule
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewSolver()
		constraint := buildFuzzTerm(s, data)
		s.Assert(constraint)
		res := s.Solve()

		widths := map[string]int{"a": 2, "b": 3, "c": 1}
		switch res {
		case Sat:
			m := s.Model()
			env := map[string]uint64{}
			for name := range widths {
				v, ok := m[name].Uint64()
				if !ok {
					t.Fatalf("model value for %s not fully defined", name)
				}
				env[name] = v
			}
			if evalTerm(t, constraint, env) != 1 {
				t.Fatalf("sat model does not satisfy %s: env=%v", constraint, env)
			}
		case Unsat:
			for a := uint64(0); a < 4; a++ {
				for b := uint64(0); b < 8; b++ {
					for c := uint64(0); c < 2; c++ {
						env := map[string]uint64{"a": a, "b": b, "c": c}
						if evalTerm(t, constraint, env) == 1 {
							t.Fatalf("unsat but %v satisfies %s", env, constraint)
						}
					}
				}
			}
		default:
			t.Fatalf("unexpected solve result %v", res)
		}

		over := []string{"a", "b", "c"}
		for _, c := range []uint64{1, 0, 1} {
			got := map[uint64]bool{}
			for _, m := range s.SolveN(64, over, s.Lits("c", logic.FromUint64(1, c))...) {
				env := map[string]uint64{}
				for name := range widths {
					env[name], _ = m[name].Uint64()
				}
				key := env["a"] | env["b"]<<2 | env["c"]<<5
				if got[key] {
					t.Fatalf("c=%d: model %v enumerated twice", c, env)
				}
				got[key] = true
			}
			for a := uint64(0); a < 4; a++ {
				for b := uint64(0); b < 8; b++ {
					env := map[string]uint64{"a": a, "b": b, "c": c}
					if want := evalTerm(t, constraint, env) == 1; want != got[a|b<<2|c<<5] {
						t.Fatalf("c=%d: %v satisfies %s = %v, enumerated = %v", c, env, constraint, want, !want)
					}
					delete(got, a|b<<2|c<<5)
				}
			}
			if len(got) != 0 {
				t.Fatalf("c=%d: enumerated models violating the assumption: %v", c, got)
			}
		}
	})
}

// buildFuzzTerm interprets the fuzz input as a stack-machine program
// over small bit-vector terms and returns a 1-bit constraint. Every
// term kind is reachable; widths are coerced (ZExt truncates or
// extends) so constructor panics are impossible by construction.
func buildFuzzTerm(s *Solver, data []byte) *Term {
	stack := []*Term{
		s.Var("a", 2), s.Var("b", 3), s.Var("c", 1),
		ConstUint(2, 1), ConstUint(3, 5),
	}
	pick := func(sel byte) *Term { return stack[int(sel)%len(stack)] }
	push := func(t *Term) {
		const maxStack = 32
		if len(stack) < maxStack {
			stack = append(stack, t)
			return
		}
		stack[(len(stack)-1+t.W)%maxStack] = t
	}
	const maxOps = 24
	for i := 0; i+3 < len(data) && i/4 < maxOps; i += 4 {
		op, s1, s2, s3 := data[i], data[i+1], data[i+2], data[i+3]
		x := pick(s1)
		y := ZExt(pick(s2), x.W)
		switch op % 20 {
		case 0:
			push(Not(x))
		case 1:
			push(And(x, y))
		case 2:
			push(Or(x, y))
		case 3:
			push(Xor(x, y))
		case 4:
			push(Add(x, y))
		case 5:
			push(Sub(x, y))
		case 6:
			push(Mul(x, y))
		case 7:
			push(Neg(x))
		case 8:
			push(Eq(x, y))
		case 9:
			push(Ult(x, y))
		case 10:
			push(Ule(x, y))
		case 11:
			push(Ite(ZExt(pick(s3), 1), x, y))
		case 12:
			lo := int(s3) % x.W
			hi := lo + int(s3>>4)%(x.W-lo)
			push(Extract(x, hi, lo))
		case 13:
			if x.W+y.W <= 8 {
				push(Concat(x, y))
			}
		case 14:
			push(ZExt(x, 1+int(s3)%8))
		case 15:
			push(Shl(x, y))
		case 16:
			push(Shr(x, y))
		case 17:
			push(RedAnd(x))
		case 18:
			push(RedOr(x))
		case 19:
			push(RedXor(x))
		}
	}
	return RedOr(stack[len(stack)-1])
}

// evalTerm is an independent concrete evaluator over uint64 — the
// reference semantics the solver is checked against. Results are
// masked to the term width.
func evalTerm(t *testing.T, term *Term, env map[string]uint64) uint64 {
	t.Helper()
	mask := func(w int) uint64 {
		if w >= 64 {
			return ^uint64(0)
		}
		return (uint64(1) << uint(w)) - 1
	}
	var ev func(*Term) uint64
	ev = func(x *Term) uint64 {
		switch x.Kind {
		case KVar:
			v, ok := env[x.Name]
			if !ok {
				t.Fatalf("unbound variable %s", x.Name)
			}
			return v & mask(x.W)
		case KConst:
			v, ok := x.Val.Uint64()
			if !ok {
				t.Fatalf("constant with undefined bits: %s", x.Val)
			}
			return v
		case KNot:
			return ^ev(x.Args[0]) & mask(x.W)
		case KAnd:
			return ev(x.Args[0]) & ev(x.Args[1])
		case KOr:
			return ev(x.Args[0]) | ev(x.Args[1])
		case KXor:
			return ev(x.Args[0]) ^ ev(x.Args[1])
		case KAdd:
			return (ev(x.Args[0]) + ev(x.Args[1])) & mask(x.W)
		case KSub:
			return (ev(x.Args[0]) - ev(x.Args[1])) & mask(x.W)
		case KMul:
			return (ev(x.Args[0]) * ev(x.Args[1])) & mask(x.W)
		case KNeg:
			return (-ev(x.Args[0])) & mask(x.W)
		case KEq:
			if ev(x.Args[0]) == ev(x.Args[1]) {
				return 1
			}
			return 0
		case KUlt:
			if ev(x.Args[0]) < ev(x.Args[1]) {
				return 1
			}
			return 0
		case KUle:
			if ev(x.Args[0]) <= ev(x.Args[1]) {
				return 1
			}
			return 0
		case KIte:
			if ev(x.Args[0]) != 0 {
				return ev(x.Args[1])
			}
			return ev(x.Args[2])
		case KExtract:
			return (ev(x.Args[0]) >> uint(x.Lo)) & mask(x.Hi-x.Lo+1)
		case KConcat:
			acc := uint64(0)
			for _, a := range x.Args { // first argument = MSBs
				acc = acc<<uint(a.W) | ev(a)
			}
			return acc
		case KZext:
			return ev(x.Args[0]) & mask(x.W)
		case KShl:
			sh := ev(x.Args[1])
			if sh >= uint64(x.W) {
				return 0
			}
			return (ev(x.Args[0]) << uint(sh)) & mask(x.W)
		case KShr:
			sh := ev(x.Args[1])
			if sh >= uint64(x.W) {
				return 0
			}
			return ev(x.Args[0]) >> uint(sh)
		case KRedAnd:
			if ev(x.Args[0]) == mask(x.Args[0].W) {
				return 1
			}
			return 0
		case KRedOr:
			if ev(x.Args[0]) != 0 {
				return 1
			}
			return 0
		case KRedXor:
			return uint64(bits.OnesCount64(ev(x.Args[0]))) & 1
		default:
			t.Fatalf("evaluator missing kind %d", x.Kind)
			return 0
		}
	}
	return ev(term)
}
