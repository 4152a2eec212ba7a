// Package smt implements the QF_BV solver SymbFuzz uses to solve
// dependency equations (§4.4.2) and generate sequencer constraints
// (§4.8): a bit-vector term language, Tseitin bit-blasting, and a
// from-scratch CDCL SAT solver with two-literal watching, VSIDS-style
// activity, first-UIP conflict analysis, restarts, and optional random
// decision polarity so repeated queries yield diverse satisfying
// assignments (the solver stands in for z3 in the paper's flow).
package smt

import (
	"math/rand"
)

// Lit is a SAT literal: variable<<1 | sign (1 = negated).
// Variables are numbered from 0.
type Lit int32

// MkLit builds a literal for variable v, negated when neg is true.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

type clause struct {
	lits    []Lit
	learned bool
	act     float64
}

// SAT is a CDCL satisfiability solver.
type SAT struct {
	clauses []*clause
	watches [][]*clause // watcher lists indexed by literal
	assign  []lbool     // per variable
	level   []int
	reason  []*clause
	trail   []Lit
	lim     []int // decision-level boundaries in trail
	qhead   int

	activity []float64
	varInc   float64
	phase    []bool // saved phase

	rng *rand.Rand // optional random polarity / decision tie-breaking

	nConflicts int64
	nDecisions int64
	nProps     int64
	nRestarts  int64

	unsat bool // a root-level contradiction was detected
}

// NewSAT returns an empty solver.
func NewSAT() *SAT {
	return &SAT{varInc: 1}
}

// SetRand installs a randomness source; when set, decision variables get
// random polarity, which diversifies the models returned for repeated
// satisfiable queries.
func (s *SAT) SetRand(r *rand.Rand) { s.rng = r }

// NewVar allocates a fresh variable and returns its index.
func (s *SAT) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.watches = append(s.watches, nil, nil)
	return v
}

// NumVars returns the variable count.
func (s *SAT) NumVars() int { return len(s.assign) }

func (s *SAT) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		return -v
	}
	return v
}

// AddClause adds a problem clause. Returns false if the formula became
// trivially unsatisfiable. Duplicate literals are filtered out in place,
// into the caller's slice, keeping first occurrences in order; the
// stored clause is a copy.
func (s *SAT) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	s.cancelUntil(0) // clauses are always added at the root level
	// Deduplicate and drop tautologies. Clauses are short, so a linear
	// scan beats a set.
	out := lits[:0]
next:
	for _, l := range lits {
		for _, k := range out {
			switch k {
			case l:
				continue next
			case l.Not():
				return true // tautology: always satisfied
			}
		}
		out = append(out, l)
	}
	lits = out
	// Remove already-false top-level literals; detect satisfied clauses.
	filtered := make([]Lit, 0, len(lits))
	for _, l := range lits {
		switch {
		case s.assign[l.Var()] == lUndef || s.level[l.Var()] > 0:
			filtered = append(filtered, l)
		case s.value(l) == lTrue:
			return true
		}
	}
	switch len(filtered) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if s.value(filtered[0]) == lFalse {
			s.unsat = true
			return false
		}
		if s.value(filtered[0]) == lUndef {
			s.uncheckedEnqueue(filtered[0], nil)
			if s.propagate() != nil {
				s.unsat = true
				return false
			}
		}
		return true
	}
	c := &clause{lits: filtered}
	s.attach(c)
	s.clauses = append(s.clauses, c)
	return true
}

func (s *SAT) attach(c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

func (s *SAT) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = len(s.lim)
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; returns a conflicting clause or nil.
func (s *SAT) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.nProps++
		ws := s.watches[p]
		kept := ws[:0]
		var confl *clause
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			if confl != nil {
				kept = append(kept, c)
				continue
			}
			// Normalize: false literal at position 1.
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			kept = append(kept, c)
			if s.value(c.lits[0]) == lFalse {
				confl = c
				continue
			}
			s.uncheckedEnqueue(c.lits[0], c)
		}
		s.watches[p] = kept
		if confl != nil {
			return confl
		}
	}
	return nil
}

func (s *SAT) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// analyze performs first-UIP conflict analysis; returns the learned
// clause (asserting literal first) and the backtrack level.
func (s *SAT) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 for the asserting literal
	seen := make(map[int]bool)
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	curLevel := len(s.lim)

	c := confl
	for {
		for _, q := range c.lits {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == curLevel {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Pick the next trail literal at the current level.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	return learnt, btLevel
}

func (s *SAT) cancelUntil(level int) {
	if len(s.lim) <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.lim[level]; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = nil
	}
	s.trail = s.trail[:s.lim[level]]
	s.lim = s.lim[:level]
	s.qhead = len(s.trail)
}

// pickBranch selects the unassigned variable with the highest activity.
func (s *SAT) pickBranch() Lit {
	best := -1
	for v := 0; v < len(s.assign); v++ {
		if s.assign[v] != lUndef {
			continue
		}
		if best == -1 || s.activity[v] > s.activity[best] {
			best = v
		}
	}
	if best == -1 {
		return -1
	}
	neg := !s.phase[best]
	if s.rng != nil {
		neg = s.rng.Intn(2) == 0
	}
	return MkLit(best, neg)
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// Solve runs the CDCL loop under the given assumptions. It returns
// true (satisfiable), false (unsatisfiable). Assumptions are literals
// forced at successive decision levels.
func (s *SAT) Solve(assumptions ...Lit) bool {
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.unsat = true
		return false
	}
	restartIdx := int64(1)
	conflictBudget := 64 * luby(restartIdx)
	conflictsHere := int64(0)

	for {
		confl := s.propagate()
		if confl != nil {
			s.nConflicts++
			conflictsHere++
			if len(s.lim) == 0 {
				return false
			}
			learnt, btLevel := s.analyze(confl)
			// Never backtrack past the assumption levels.
			if btLevel < len(assumptions) {
				// Conflict depends on assumptions only.
				if allAtAssumptionLevels(s, learnt, len(assumptions)) && btLevel == 0 && len(s.lim) <= len(assumptions) {
					return false
				}
				if btLevel < 0 {
					btLevel = 0
				}
			}
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				if s.value(learnt[0]) == lFalse {
					return false
				}
				if s.value(learnt[0]) == lUndef {
					s.uncheckedEnqueue(learnt[0], nil)
				}
			} else {
				c := &clause{lits: learnt, learned: true}
				s.attach(c)
				s.clauses = append(s.clauses, c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varInc *= 1.0 / 0.95
			continue
		}
		if conflictsHere > conflictBudget {
			// Restart.
			restartIdx++
			s.nRestarts++
			conflictBudget = 64 * luby(restartIdx)
			conflictsHere = 0
			s.cancelUntil(0)
			continue
		}
		// Apply assumptions one decision level at a time.
		if len(s.lim) < len(assumptions) {
			a := assumptions[len(s.lim)]
			switch s.value(a) {
			case lTrue:
				// Already satisfied: open an empty level to keep indices aligned.
				s.lim = append(s.lim, len(s.trail))
			case lFalse:
				return false
			default:
				s.lim = append(s.lim, len(s.trail))
				s.uncheckedEnqueue(a, nil)
			}
			continue
		}
		l := s.pickBranch()
		if l == -1 {
			return true // all assigned: model found
		}
		s.nDecisions++
		s.lim = append(s.lim, len(s.trail))
		s.uncheckedEnqueue(l, nil)
	}
}

func allAtAssumptionLevels(s *SAT, lits []Lit, nAssume int) bool {
	for _, l := range lits {
		if s.level[l.Var()] > nAssume {
			return false
		}
	}
	return true
}

// ValueOf returns the model value of a variable after a successful
// Solve: true, false — unassigned variables default to false.
func (s *SAT) ValueOf(v int) bool {
	return s.assign[v] == lTrue
}

// Stats returns (conflicts, decisions, propagations).
func (s *SAT) Stats() (int64, int64, int64) {
	return s.nConflicts, s.nDecisions, s.nProps
}

// Restarts returns the cumulative Luby-restart count.
func (s *SAT) Restarts() int64 { return s.nRestarts }
