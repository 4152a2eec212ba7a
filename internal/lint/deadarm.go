package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/elab"
	"repro/internal/smt"
)

// sigVar prefixes the free variables standing in for signal reads in
// dead-arm queries.
const sigVar = "s."

// DeadArmCheck proves if/case arms unreachable. Every signal read is a
// free variable constrained to the signal's declared enum domain and
// its inferred value domain; an arm whose path condition is UNSAT under
// those constraints can never execute. Proven-dead arms are recorded in
// ctx.Facts.DeadArms and used to refine the value domains (assignments
// inside dead arms cannot contribute values), which is what the fuzzing
// engine consumes to prune CFG targets.
type DeadArmCheck struct{}

// ID implements Check.
func (DeadArmCheck) ID() string { return "dead-arm" }

// Description implements Check.
func (DeadArmCheck) Description() string {
	return "if/case arm proven unreachable under enum and inferred value domains"
}

// Run implements Check.
func (DeadArmCheck) Run(ctx *Context) []Diagnostic {
	pr := &armProver{d: ctx.Design, facts: ctx.Facts, allowed: map[string][][]uint64{}}
	var diags []Diagnostic
	for _, p := range ctx.Design.Procs {
		diags = append(diags, pr.walk(p.Body, nil)...)
	}
	// Refine: re-run domain inference skipping statements inside arms
	// now proven dead; tighter domains are what node pruning feeds on.
	if len(ctx.Facts.DeadArms) > 0 {
		refined := inferDomainsExcluding(ctx.Design, ctx.Facts.DeadArms)
		ctx.Facts.Domains = refined.Domains
	}
	return diags
}

// AnalyzeReachability runs the reachability analyses (value-domain
// inference plus the dead-arm prover) standalone and returns the proven
// facts. This is the entry point the fuzzing engine uses to prune
// statically unreachable CFG target nodes.
func AnalyzeReachability(d *elab.Design) *Facts {
	ctx := &Context{Design: d, Facts: InferDomains(d)}
	DeadArmCheck{}.Run(ctx)
	return ctx.Facts
}

// armProver walks a process, carrying the path condition, and issues
// one solver query per arm.
type armProver struct {
	d       *elab.Design
	facts   *Facts
	freshID int
	// allowed memoizes allowedSets by variable name.
	allowed map[string][][]uint64
}

func (pr *armProver) walk(stmts []elab.Stmt, path []*smt.Term) []Diagnostic {
	var diags []Diagnostic
	for _, s := range stmts {
		switch n := s.(type) {
		case elab.SIf:
			cond := smt.RedOr(pr.evalExpr(n.Cond))
			thenDead := pr.unsat(append(path, cond))
			elseDead := pr.unsat(append(path, smt.Not(cond)))
			if thenDead {
				pr.record(n.BranchID, 0)
				if len(n.Then) > 0 {
					diags = append(diags, pr.diag(n.BranchID, 0, "then branch can never execute"))
				}
			} else {
				diags = append(diags, pr.walk(n.Then, append(path, cond))...)
			}
			if elseDead {
				pr.record(n.BranchID, 1)
				if len(n.Else) > 0 {
					diags = append(diags, pr.diag(n.BranchID, 1, "else branch can never execute"))
				}
			} else {
				diags = append(diags, pr.walk(n.Else, append(path, smt.Not(cond)))...)
			}
		case elab.SCase:
			subj := pr.evalExpr(n.Subject)
			matches := make([]*smt.Term, len(n.Items))
			for i, item := range n.Items {
				matches[i] = analysis.CaseMatch(subj, item.Matches, pr.evalExpr)
			}
			for i, item := range n.Items {
				// Arm i runs when it matches and no earlier arm did.
				armCond := []*smt.Term{matches[i]}
				for j := 0; j < i; j++ {
					armCond = append(armCond, smt.Not(matches[j]))
				}
				armPath := append(append([]*smt.Term{}, path...), armCond...)
				if pr.unsat(armPath) {
					pr.record(n.BranchID, i)
					diags = append(diags, pr.diag(n.BranchID, i,
						fmt.Sprintf("case arm %d can never match", i)))
					continue
				}
				diags = append(diags, pr.walk(item.Body, armPath)...)
			}
			defPath := append([]*smt.Term{}, path...)
			for _, m := range matches {
				defPath = append(defPath, smt.Not(m))
			}
			if pr.unsat(defPath) {
				pr.record(n.BranchID, len(n.Items))
				if len(n.Default) > 0 {
					diags = append(diags, pr.diag(n.BranchID, len(n.Items),
						"default arm can never execute (explicit arms are exhaustive)"))
				}
			} else {
				diags = append(diags, pr.walk(n.Default, defPath)...)
			}
		}
	}
	return diags
}

func (pr *armProver) record(branch, arm int) {
	if !pr.facts.ArmDead(branch, arm) {
		pr.facts.DeadArms[branch] = append(pr.facts.DeadArms[branch], arm)
		sort.Ints(pr.facts.DeadArms[branch])
	}
}

func (pr *armProver) diag(branch, arm int, what string) Diagnostic {
	bi := pr.d.BranchInfo[branch]
	proc := ""
	if bi.Proc >= 0 && bi.Proc < len(pr.d.Procs) {
		proc = pr.d.Procs[bi.Proc].Name
	}
	return Diagnostic{
		Rule:     "dead-arm",
		Severity: SevWarning,
		Proc:     proc,
		Pos:      bi.Pos,
		Branch:   branch,
		Arm:      arm,
		Msg:      fmt.Sprintf("%s statement: %s", bi.Kind, what),
	}
}

// unsat decides whether the conjunction of conds is unsatisfiable under
// the domain constraints of every signal variable the terms reference.
func (pr *armProver) unsat(conds []*smt.Term) bool {
	pr.facts.SolverQueries++
	s := smt.NewSolver()
	widths := map[string]int{}
	for _, c := range conds {
		analysis.CollectVars(c, widths)
	}
	// Declare in name order: declaration order numbers the solver's
	// variables, so map order would vary it from run to run.
	names := make([]string, 0, len(widths))
	for name := range widths {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if dc := pr.domainConstraint(s.Var(name, widths[name])); dc != nil {
			s.Assert(dc)
		}
	}
	for _, c := range conds {
		s.Assert(c)
	}
	return s.Solve() == smt.Unsat
}

// allowedSets returns the value sets a query variable is constrained
// to, in assertion order: the signal's declared enum domain (plus 0 for
// the X-at-reset canonical state and any declaration initializer), then
// its inferred value domain. A set counts only when it is non-empty and
// within maxDomainValues. Fresh variables and signals wider than
// maxDomainWidth are unconstrained. The facts it reads do not change
// during the walk, so it is built once per variable.
func (pr *armProver) allowedSets(name string) [][]uint64 {
	if sets, ok := pr.allowed[name]; ok {
		return sets
	}
	usable := func(vals []uint64) bool {
		return len(vals) > 0 && len(vals) <= maxDomainValues
	}
	var sets [][]uint64
	sigName, isSig := strings.CutPrefix(name, sigVar)
	if sig, ok := pr.d.ByName[sigName]; isSig && ok && sig.Width <= maxDomainWidth {
		if len(sig.EnumNames) > 0 {
			set := map[uint64]bool{0: true}
			for ev := range sig.EnumNames {
				set[ev&maskOf(sig.Width)] = true
			}
			if sig.Init != nil {
				if iv, ok := sig.Init.Uint64(); ok {
					set[iv&maskOf(sig.Width)] = true
				}
			}
			vals := make([]uint64, 0, len(set))
			for ev := range set {
				vals = append(vals, ev)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			if usable(vals) {
				sets = append(sets, vals)
			}
		}
		if dom, bounded := pr.facts.DomainOf(sig.Index); bounded && usable(dom) {
			sets = append(sets, dom)
		}
	}
	pr.allowed[name] = sets
	return sets
}

// domainConstraint builds "v is one of its allowed values" for a query
// variable: one membership disjunction per allowed set, conjoined.
// Returns nil when the variable is unconstrained.
func (pr *armProver) domainConstraint(v *smt.Term) *smt.Term {
	var out *smt.Term
	for _, vals := range pr.allowedSets(v.Name) {
		alts := make([]*smt.Term, len(vals))
		for i, val := range vals {
			alts[i] = smt.Eq(v, smt.ConstUint(v.Width(), val&maskOf(v.Width())))
		}
		if m := smt.BoolOr(alts...); out == nil {
			out = m
		} else {
			out = smt.And(out, m)
		}
	}
	return out
}

// evalExpr converts an IR expression into a term. Signal reads become
// free "s.<name>" variables; memory reads and X constants become
// per-occurrence fresh "f.<n>" variables.
func (pr *armProver) evalExpr(x elab.Expr) *smt.Term {
	return analysis.Lower(x, func(idx, w int) *smt.Term {
		return smt.Var(sigVar+pr.d.Signals[idx].Name, w)
	}, func(w int, _ string) *smt.Term {
		pr.freshID++
		return smt.Var(fmt.Sprintf("f.%d", pr.freshID), w)
	})
}
