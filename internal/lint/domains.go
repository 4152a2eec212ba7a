package lint

import (
	"sort"

	"repro/internal/elab"
)

// maxDomainValues caps an inferred per-signal value set; larger sets
// widen to "unconstrained".
const maxDomainValues = 64

// maxDomainWidth bounds the signals the inference tracks; wider signals
// cannot be represented as uint64 value sets.
const maxDomainWidth = 64

// Facts are the proven reachability facts a lint run accumulates. All
// facts are sound over-approximations: a value outside a signal's
// domain, or an arm listed as dead, is statically unreachable.
type Facts struct {
	// Domains maps a signal index to the proven set of values the
	// signal can ever hold (two-state view: X bits canonicalized to 0).
	// Signals absent from the map are unconstrained.
	Domains map[int][]uint64
	// DeadArms maps a branch ID to the arms proven unreachable.
	DeadArms map[int][]int
	// SolverQueries counts SMT queries issued while proving facts.
	SolverQueries int
}

// DomainOf returns the proven value set of a signal, if bounded.
func (f *Facts) DomainOf(idx int) ([]uint64, bool) {
	if f == nil {
		return nil, false
	}
	dom, ok := f.Domains[idx]
	return dom, ok
}

// Allows reports whether a signal may hold value v: true when the
// signal is unconstrained or v is in its proven domain.
func (f *Facts) Allows(idx int, v uint64) bool {
	dom, ok := f.DomainOf(idx)
	if !ok {
		return true
	}
	i := sort.Search(len(dom), func(k int) bool { return dom[k] >= v })
	return i < len(dom) && dom[i] == v
}

// ArmDead reports whether branch id's arm is proven unreachable.
func (f *Facts) ArmDead(id, arm int) bool {
	if f == nil {
		return false
	}
	for _, a := range f.DeadArms[id] {
		if a == arm {
			return true
		}
	}
	return false
}

// valSet is the abstract value of one signal during inference: a finite
// set of possible values, or top (unbounded).
type valSet struct {
	vals map[uint64]bool
	top  bool
}

func topSet() valSet { return valSet{top: true} }

func (v valSet) union(o valSet) valSet {
	if v.top || o.top {
		return topSet()
	}
	out := valSet{vals: map[uint64]bool{}}
	for k := range v.vals {
		out.vals[k] = true
	}
	for k := range o.vals {
		out.vals[k] = true
	}
	if len(out.vals) > maxDomainValues {
		return topSet()
	}
	return out
}

func (v valSet) eq(o valSet) bool {
	if v.top != o.top {
		return false
	}
	if v.top {
		return true
	}
	if len(v.vals) != len(o.vals) {
		return false
	}
	for k := range v.vals {
		if !o.vals[k] {
			return false
		}
	}
	return true
}

// mapVals applies f to every value, widening to top on overflow.
func (v valSet) mapVals(f func(uint64) uint64) valSet {
	if v.top {
		return v
	}
	out := valSet{vals: map[uint64]bool{}}
	for k := range v.vals {
		out.vals[f(k)] = true
	}
	return out
}

func maskOf(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// InferDomains computes, per signal, the set of values the signal can
// ever hold, by a least-fixpoint dataflow over whole-signal assignments.
// A signal is bounded only when every assignment to it resolves to a
// finite value set; partial writes (bit/range/concat targets) and
// unresolvable expressions widen it to unconstrained. 0 is always
// included to cover X-at-reset states under the engine's X->0
// canonicalization, and declaration initializers are included.
func InferDomains(d *elab.Design) *Facts {
	return inferDomainsExcluding(d, nil)
}

// inferDomainsExcluding is InferDomains, skipping assignments inside
// branch arms already proven dead — those assignments can never execute,
// so their values do not belong to any domain.
func inferDomainsExcluding(d *elab.Design, deadArms map[int][]int) *Facts {
	dead := func(id, arm int) bool {
		for _, a := range deadArms[id] {
			if a == arm {
				return true
			}
		}
		return false
	}
	n := len(d.Signals)
	// full[idx] collects whole-signal assignment RHS expressions;
	// wide[idx] marks signals that must widen to top.
	full := make([][]elab.Expr, n)
	wide := make([]bool, n)
	var collect func(stmts []elab.Stmt)
	var collectTarget func(t elab.Target, rhs elab.Expr)
	collectTarget = func(t elab.Target, rhs elab.Expr) {
		switch tt := t.(type) {
		case elab.TSig:
			full[tt.Idx] = append(full[tt.Idx], rhs)
		case elab.TRange:
			wide[tt.Idx] = true
		case elab.TBit:
			wide[tt.Idx] = true
		case elab.TCat:
			for _, p := range tt.Parts {
				collectTarget(p, nil)
			}
		case elab.TMem:
			// memory contents are outside signal domains
		}
	}
	collect = func(stmts []elab.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case elab.SAssign:
				collectTarget(st.LHS, st.RHS)
			case elab.SIf:
				if !dead(st.BranchID, 0) {
					collect(st.Then)
				}
				if !dead(st.BranchID, 1) {
					collect(st.Else)
				}
			case elab.SCase:
				for i, item := range st.Items {
					if !dead(st.BranchID, i) {
						collect(item.Body)
					}
				}
				if !dead(st.BranchID, len(st.Items)) {
					collect(st.Default)
				}
			}
		}
	}
	for _, p := range d.Procs {
		collect(p.Body)
	}

	// Abstract state: start every signal at bottom (empty set); widen
	// inputs, wide signals and over-wide signals to top immediately.
	state := make([]valSet, n)
	for i, sig := range d.Signals {
		state[i] = valSet{vals: map[uint64]bool{}}
		if sig.Kind == elab.SigInput || wide[i] || sig.Width > maxDomainWidth {
			state[i] = topSet()
		}
	}

	var evalDomain func(e elab.Expr) valSet
	evalDomain = func(e elab.Expr) valSet {
		switch x := e.(type) {
		case elab.Const:
			if v, ok := x.V.Uint64(); ok {
				return valSet{vals: map[uint64]bool{v: true}}
			}
			// Constants with X/Z bits canonicalize to their known bits
			// with unknowns zeroed.
			return topSet()
		case elab.Sig:
			return state[x.Idx]
		case elab.ZExt:
			inner := evalDomain(x.X)
			if x.W < x.X.Width() {
				return inner.mapVals(func(v uint64) uint64 { return v & maskOf(x.W) })
			}
			return inner
		case elab.Cond:
			return evalDomain(x.T).union(evalDomain(x.F))
		case elab.Slice:
			inner := evalDomain(x.X)
			if x.Hi >= 64 {
				return topSet()
			}
			return inner.mapVals(func(v uint64) uint64 {
				return (v >> uint(x.Lo)) & maskOf(x.Hi-x.Lo+1)
			})
		default:
			return topSet()
		}
	}

	// Least fixpoint: value sets only grow (and saturate at top), so
	// iteration terminates; the bound below is a safety net.
	for iter := 0; iter < n*(maxDomainValues+2)+2; iter++ {
		changed := false
		for idx := range d.Signals {
			if state[idx].top {
				continue
			}
			next := state[idx]
			for _, rhs := range full[idx] {
				if rhs == nil {
					next = topSet()
					break
				}
				next = next.union(evalDomain(rhs))
				if next.top {
					break
				}
			}
			if !next.eq(state[idx]) {
				state[idx] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	facts := &Facts{Domains: map[int][]uint64{}, DeadArms: map[int][]int{}}
	for idx, sig := range d.Signals {
		if state[idx].top || len(full[idx]) == 0 {
			// Unbounded, or never whole-assigned (undriven signals hold
			// X; don't constrain them beyond the canonical 0 added
			// below for driven ones).
			continue
		}
		vals := state[idx].vals
		mask := maskOf(sig.Width)
		set := map[uint64]bool{0: true} // X-at-reset canonicalizes to 0
		for v := range vals {
			set[v&mask] = true
		}
		if sig.Init != nil {
			if v, ok := sig.Init.Uint64(); ok {
				set[v&mask] = true
			}
		}
		// A domain covering the whole encoding space proves nothing.
		if sig.Width <= 16 && uint64(len(set)) == uint64(1)<<uint(sig.Width) {
			continue
		}
		dom := make([]uint64, 0, len(set))
		for v := range set {
			dom = append(dom, v)
		}
		sort.Slice(dom, func(i, j int) bool { return dom[i] < dom[j] })
		facts.Domains[idx] = dom
	}
	return facts
}
