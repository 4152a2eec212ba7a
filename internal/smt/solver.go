package smt

import (
	"math/rand"
	"time"

	"repro/internal/logic"
)

// Result of a Solve call.
type Result int

// Solve outcomes.
const (
	Unsat Result = iota
	Sat
)

// String renders the result.
func (r Result) String() string {
	if r == Sat {
		return "sat"
	}
	return "unsat"
}

// SolveStats are the statistics of one Solve call: the CDCL search
// counters (deltas over the call, not running totals), the formula size
// at decision time, and the wall-clock split between Tseitin
// bit-blasting (accumulated over the Assert calls since the previous
// Solve) and the CDCL search itself. Table 3's "constraints generated"
// is Clauses; the paper's per-dispatch solve latency is BlastNS+SolveNS.
type SolveStats struct {
	Outcome      Result
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Clauses      int
	Vars         int
	BlastNS      int64
	SolveNS      int64
}

// Solver is the user-facing QF_BV solver. Assertions accumulate; each
// Solve call decides the conjunction. Models are extracted for all
// declared variables.
type Solver struct {
	sat  *SAT
	b    *blaster
	vars map[string]*Term
	rng  *rand.Rand

	blastNS int64 // bit-blast time accumulated since the last Solve
	last    SolveStats
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	s := NewSAT()
	return &Solver{sat: s, b: newBlaster(s), vars: map[string]*Term{}}
}

// SetRand installs a randomness source used to diversify models.
func (s *Solver) SetRand(r *rand.Rand) {
	s.rng = r
	s.sat.SetRand(r)
}

// Var declares (or retrieves) a bit-vector variable.
func (s *Solver) Var(name string, width int) *Term {
	if t, ok := s.vars[name]; ok {
		if t.W != width {
			panic("smt: variable redeclared with different width")
		}
		return t
	}
	t := Var(name, width)
	s.vars[name] = t
	s.b.declare(name, width)
	return t
}

// Assert adds a 1-bit constraint that must hold.
func (s *Solver) Assert(t *Term) {
	for _, name := range t.Vars() {
		if _, ok := s.vars[name]; !ok {
			panic("smt: assertion references undeclared variable " + name)
		}
	}
	start := time.Now()
	s.b.assertTrue(t)
	s.blastNS += int64(time.Since(start))
}

// Solve decides the accumulated constraints under the given assumption
// literals, which hold for this call only, and records the call's
// SolveStats (readable via LastStats until the next Solve).
func (s *Solver) Solve(assume ...Lit) Result {
	c0, d0, p0 := s.sat.Stats()
	r0 := s.sat.Restarts()
	start := time.Now()
	res := Unsat
	if s.sat.Solve(assume...) {
		res = Sat
	}
	c1, d1, p1 := s.sat.Stats()
	s.last = SolveStats{
		Outcome:      res,
		Conflicts:    c1 - c0,
		Decisions:    d1 - d0,
		Propagations: p1 - p0,
		Restarts:     s.sat.Restarts() - r0,
		Clauses:      len(s.sat.clauses),
		Vars:         s.sat.NumVars(),
		BlastNS:      s.blastNS,
		SolveNS:      int64(time.Since(start)),
	}
	s.blastNS = 0
	return res
}

// LastStats returns the statistics of the most recent Solve call (the
// zero value before any Solve).
func (s *Solver) LastStats() SolveStats { return s.last }

// Model returns the satisfying assignment for every declared variable.
// Valid only immediately after a Sat result.
func (s *Solver) Model() map[string]logic.BV {
	out := make(map[string]logic.BV, len(s.vars))
	for name := range s.vars {
		out[name] = s.value(s.b.vars[name])
	}
	return out
}

// value reads a variable's bits (LSB first) from the last model.
func (s *Solver) value(lits []Lit) logic.BV {
	v := logic.Zero(len(lits))
	for i, l := range lits {
		if s.sat.ValueOf(l.Var()) != l.Neg() {
			v = v.WithBit(i, logic.L1)
		}
	}
	return v
}

// Lits returns one literal per bit of the declared variable name (LSB
// first), each true exactly when that bit equals v's (unknown bits read
// as 0). Passed to Solve or SolveN as assumptions, they fix the
// variable to v for that call only.
func (s *Solver) Lits(name string, v logic.BV) []Lit {
	lits, ok := s.b.vars[name]
	if !ok {
		panic("smt: assumption on undeclared variable " + name)
	}
	out := make([]Lit, len(lits))
	for i, l := range lits {
		if i >= v.Width() || v.Bit(i) != logic.L1 {
			l = l.Not()
		}
		out[i] = l
	}
	return out
}

// SolveN enumerates up to n distinct models over the given variables
// under the assumptions and returns each model's over values. Each
// model is blocked by a clause guarded with a fresh activation literal
// that the call assumes and then retires, so the blocking clauses bind
// this call only and the solver stays usable for further queries.
func (s *Solver) SolveN(n int, over []string, assume ...Lit) []map[string]logic.BV {
	act := MkLit(s.sat.NewVar(), false)
	assume = append([]Lit{act}, assume...)
	var out []map[string]logic.BV
	for len(out) < n && s.Solve(assume...) == Sat {
		m := make(map[string]logic.BV, len(over))
		block := []Lit{act.Not()}
		for _, name := range over {
			lits, ok := s.b.vars[name]
			if !ok {
				continue
			}
			m[name] = s.value(lits)
			for _, l := range lits {
				if s.sat.ValueOf(l.Var()) != l.Neg() {
					l = l.Not()
				}
				block = append(block, l)
			}
		}
		out = append(out, m)
		s.sat.AddClause(block...)
	}
	s.sat.AddClause(act.Not())
	return out
}

// NumClauses returns the problem + learned clause count (Table 3's
// "constraints generated" column counts solver constraints).
func (s *Solver) NumClauses() int { return len(s.sat.clauses) }

// NumVars returns the allocated SAT variable count.
func (s *Solver) NumVars() int { return s.sat.NumVars() }

// Stats returns (conflicts, decisions, propagations).
func (s *Solver) Stats() (int64, int64, int64) { return s.sat.Stats() }
