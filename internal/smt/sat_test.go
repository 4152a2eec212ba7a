package smt

import (
	"math/rand"
	"testing"
)

func TestLitEncoding(t *testing.T) {
	l := MkLit(5, true)
	if l.Var() != 5 || !l.Neg() {
		t.Errorf("lit = %v", l)
	}
	n := l.Not()
	if n.Var() != 5 || n.Neg() {
		t.Errorf("not = %v", n)
	}
	if n.Not() != l {
		t.Error("double negation")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestSolveWithAssumptions(t *testing.T) {
	s := NewSAT()
	a := s.NewVar()
	b := s.NewVar()
	// a -> b
	s.AddClause(MkLit(a, true), MkLit(b, false))
	if !s.Solve(MkLit(a, false)) {
		t.Fatal("assuming a should be sat")
	}
	if !s.ValueOf(b) {
		t.Error("b must follow from a")
	}
	// Assume a and !b: contradiction with a->b.
	if s.Solve(MkLit(a, false), MkLit(b, true)) {
		t.Error("a && !b should be unsat")
	}
	// The solver is reusable after assumption failure.
	if !s.Solve(MkLit(a, true)) {
		t.Error("assuming !a should be sat")
	}
}

// TestAssumptionSequenceMatchesFresh runs a sequence of assumption
// queries on one instance and requires each answer, SAT or UNSAT, to
// match a fresh instance given the assumptions as unit clauses: learned
// clauses and saved state must not carry one query's assumptions into
// the next.
func TestAssumptionSequenceMatchesFresh(t *testing.T) {
	const nVars = 12
	rng := rand.New(rand.NewSource(3))
	clauses := make([][]Lit, 40)
	for i := range clauses {
		for j := 0; j < 3; j++ {
			clauses[i] = append(clauses[i], MkLit(rng.Intn(nVars), rng.Intn(2) == 0))
		}
	}
	load := func() *SAT {
		s := NewSAT()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(append([]Lit(nil), c...)...)
		}
		return s
	}
	inc := load()
	seen := map[bool]int{}
	for q := 0; q < 200; q++ {
		assume := make([]Lit, 1+rng.Intn(5))
		for i := range assume {
			assume[i] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
		}
		got := inc.Solve(assume...)
		fresh := load()
		for _, a := range assume {
			fresh.AddClause(a)
		}
		if want := fresh.Solve(); got != want {
			t.Fatalf("query %d assuming %v: incremental %v, fresh %v", q, assume, got, want)
		}
		if got {
			for _, a := range assume {
				if inc.ValueOf(a.Var()) == a.Neg() {
					t.Fatalf("query %d: model violates assumption %v", q, a)
				}
			}
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					sat = sat || inc.ValueOf(l.Var()) != l.Neg()
				}
				if !sat {
					t.Fatalf("query %d: model violates clause %v", q, c)
				}
			}
		}
		seen[got]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Errorf("sequence not mixed: %d sat, %d unsat", seen[true], seen[false])
	}
}

func TestStatsAdvance(t *testing.T) {
	s := NewSAT()
	n := 14
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 60; c++ {
		s.AddClause(
			MkLit(vars[rng.Intn(n)], rng.Intn(2) == 0),
			MkLit(vars[rng.Intn(n)], rng.Intn(2) == 0),
			MkLit(vars[rng.Intn(n)], rng.Intn(2) == 0))
	}
	s.Solve()
	_, decisions, props := s.Stats()
	if decisions == 0 && props == 0 {
		t.Error("no work recorded")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := NewSAT()
	a := s.NewVar()
	// Tautology: a || !a is dropped, formula stays satisfiable.
	if !s.AddClause(MkLit(a, false), MkLit(a, true)) {
		t.Error("tautology must not make the formula unsat")
	}
	// Duplicate literals collapse: (a || a) == (a).
	if !s.AddClause(MkLit(a, false), MkLit(a, false)) {
		t.Error("duplicate literal clause rejected")
	}
	if !s.Solve() || !s.ValueOf(a) {
		t.Error("a should be forced true")
	}
}

func TestAddClauseAfterSolve(t *testing.T) {
	// Incremental use: solve, block, solve again.
	s := NewSAT()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	count := 0
	for s.Solve() {
		count++
		if count > 4 {
			t.Fatal("too many models")
		}
		// Block the current assignment of (a, b).
		s.AddClause(MkLit(a, s.ValueOf(a)), MkLit(b, s.ValueOf(b)))
	}
	if count != 3 { // (1,0), (0,1), (1,1)
		t.Errorf("models = %d, want 3", count)
	}
}

func TestUnsatSticky(t *testing.T) {
	s := NewSAT()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	s.AddClause(MkLit(a, true))
	if s.Solve() {
		t.Fatal("should be unsat")
	}
	// Still unsat no matter what is added afterwards.
	b := s.NewVar()
	s.AddClause(MkLit(b, false))
	if s.Solve() {
		t.Error("unsat must be sticky")
	}
}

func TestRandomPolaritySAT(t *testing.T) {
	// With SetRand, free variables vary across solver instances.
	seen := map[bool]bool{}
	for seed := int64(0); seed < 16; seed++ {
		s := NewSAT()
		s.SetRand(rand.New(rand.NewSource(seed)))
		a := s.NewVar()
		b := s.NewVar()
		s.AddClause(MkLit(a, false), MkLit(b, false)) // a or b
		if !s.Solve() {
			t.Fatal("sat expected")
		}
		seen[s.ValueOf(a)] = true
	}
	if len(seen) != 2 {
		t.Error("random polarity produced identical assignments")
	}
}

func TestLargerPigeonhole(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// 6 pigeons, 5 holes: stresses conflict analysis and restarts.
	s := NewSAT()
	p, h := 6, 5
	v := make([][]int, p)
	for i := range v {
		v[i] = make([]int, h)
		for j := range v[i] {
			v[i][j] = s.NewVar()
		}
	}
	for i := 0; i < p; i++ {
		lits := make([]Lit, h)
		for j := 0; j < h; j++ {
			lits[j] = MkLit(v[i][j], false)
		}
		s.AddClause(lits...)
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				s.AddClause(MkLit(v[i1][j], true), MkLit(v[i2][j], true))
			}
		}
	}
	if s.Solve() {
		t.Fatal("pigeonhole 6/5 must be unsat")
	}
	conflicts, _, _ := s.Stats()
	if conflicts == 0 {
		t.Error("expected conflicts to be recorded")
	}
}
