package cfg

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/smt"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ControlReg is a control register: a state-holding or derived signal
// that steers branch decisions (§4.4.1).
type ControlReg struct {
	Sig *elab.Signal
	// Domain is the number of legal encodings of the register (n_j in
	// Eqn. 3): the enum member count for enum-typed signals, otherwise
	// 2^width (saturated at 2^20 for wide registers).
	Domain uint64
}

// maxCtrlRegWidth bounds the registers enumerated as CFG dimensions.
// Wider registers (big counters, data words compared in predicates)
// cannot have their value space enumerated (§4.6's discussion of wide
// predicates like r1 == 0 on a 32-bit register); their branch outcomes
// are still covered through branch-arm interaction tuples.
const maxCtrlRegWidth = 8

// ControlRegisters identifies the design's control registers: every
// non-input signal of bounded width read by an instrumented branch
// condition.
func ControlRegisters(d *elab.Design) []ControlReg {
	set := map[int]bool{}
	for _, bi := range d.BranchInfo {
		for _, s := range bi.CondSignals {
			if d.Signals[s].Kind != elab.SigInput && d.Signals[s].Width <= maxCtrlRegWidth {
				set[s] = true
			}
		}
	}
	idxs := make([]int, 0, len(set))
	for k := range set {
		idxs = append(idxs, k)
	}
	sort.Ints(idxs)
	out := make([]ControlReg, 0, len(idxs))
	for _, i := range idxs {
		sig := d.Signals[i]
		var dom uint64
		switch {
		case sig.EnumTy != "" && len(sig.EnumNames) > 0:
			dom = uint64(len(sig.EnumNames))
		case sig.Width >= 20:
			dom = 1 << 20
		default:
			dom = 1 << uint(sig.Width)
		}
		out = append(out, ControlReg{Sig: sig, Domain: dom})
	}
	return out
}

// NodeSpace is the total population of distinct CFG nodes (Eqn. 3):
// the product of the control registers' domains, saturating at 2^62.
func NodeSpace(regs []ControlReg) uint64 {
	total := uint64(1)
	for _, r := range regs {
		if r.Domain == 0 {
			continue
		}
		if total > (uint64(1)<<62)/r.Domain {
			return uint64(1) << 62
		}
		total *= r.Domain
	}
	return total
}

// Node is one CFG node: a valuation of the control registers.
type Node struct {
	ID   int
	Key  string
	Vals map[int]logic.BV // by signal index
	Out  []int            // edge IDs
	In   []int
}

// Edge is a transition between nodes; IDs are unique (§4.6).
type Edge struct {
	ID   int
	From int
	To   int
}

// Options configures CFG construction.
type Options struct {
	// MaxNodes bounds exploration (default 4096).
	MaxNodes int
	// MaxSuccessors bounds per-node successor enumeration (default 32).
	MaxSuccessors int
	// CheckpointFanout marks nodes with at least this many outgoing
	// edges as checkpoints (default 3, per §4.5).
	CheckpointFanout int
	// Pin fixes input signals (by name) to constants during
	// construction, e.g. keeping reset deasserted.
	Pin map[string]logic.BV
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 4096
	}
	if o.MaxSuccessors == 0 {
		o.MaxSuccessors = 32
	}
	if o.CheckpointFanout == 0 {
		o.CheckpointFanout = 3
	}
	return o
}

// Graph is the control-flow graph of §4.6: nodes are control-register
// valuations, edges are one-cycle transitions, checkpoints are nodes
// with fan-out >= the threshold.
type Graph struct {
	Design      *elab.Design
	Tr          *Transition
	Regs        []ControlReg
	Nodes       []*Node
	Edges       []Edge
	ByKey       map[string]int
	Checkpoints map[int]bool
	// Space is the static node population (Eqn. 3).
	Space uint64
	// Truncated reports whether exploration hit a bound.
	Truncated bool
	// Constraints counts the solver constraints generated during
	// construction and guidance queries (Table 3's last column).
	Constraints int
	opts        Options
	slice       *sliceState
}

// canonical zeroes unknown bits so node keys are well defined.
func canonical(v logic.BV) logic.BV {
	if v.IsFullyDefined() {
		return v
	}
	out := logic.Zero(v.Width())
	for i := 0; i < v.Width(); i++ {
		if v.Bit(i) == logic.L1 {
			out = out.WithBit(i, logic.L1)
		}
	}
	return out
}

func nodeKey(regs []ControlReg, vals map[int]logic.BV) string {
	var sb strings.Builder
	for _, r := range regs {
		v, ok := vals[r.Sig.Index]
		if !ok {
			v = logic.Zero(r.Sig.Width)
		}
		sb.WriteString(canonical(v).BitString())
		sb.WriteByte('|')
	}
	return sb.String()
}

// dstVar names the solver variable carrying a successor register value.
func dstVar(sig *elab.Signal) string { return "dst." + sig.Name }

// substitute rewrites cur.<reg> variables to the register's next-state
// term, producing the post-edge view of a combinational control signal:
// after the clock edge the combinational logic re-settles with the SAME
// input vector but the NEW register values, which is exactly what the
// coverage monitor samples.
func substitute(t *smt.Term, rename map[string]*smt.Term, memo map[*smt.Term]*smt.Term) *smt.Term {
	if r, ok := memo[t]; ok {
		return r
	}
	var out *smt.Term
	if t.Kind == smt.KVar {
		if r, ok := rename[t.Name]; ok {
			out = r
		} else {
			out = t
		}
	} else if len(t.Args) == 0 {
		out = t
	} else {
		args := make([]*smt.Term, len(t.Args))
		changed := false
		for i, a := range t.Args {
			args[i] = substitute(a, rename, memo)
			if args[i] != a {
				changed = true
			}
		}
		if !changed {
			out = t
		} else {
			cp := *t
			cp.Args = args
			out = &cp
		}
	}
	memo[t] = out
	return out
}

// Clusters partitions the control registers into interacting groups:
// registers read by the same branch condition, or referenced in each
// other's next-state dependency equations, belong to the same cluster
// (one cluster per FSM/counter complex). A multi-IP SoC then gets one
// CFG per cluster, so the total node population is the SUM of the local
// state spaces rather than their product — which is how the paper's
// OpenTitan CFG stays at ~1.4k nodes (§5.5.2).
func Clusters(d *elab.Design, tr *Transition) [][]ControlReg {
	regs := ControlRegisters(d)
	if len(regs) == 0 {
		return nil
	}
	index := map[int]int{} // signal index -> position in regs
	parent := make([]int, len(regs))
	for i, r := range regs {
		index[r.Sig.Index] = i
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, bi := range d.BranchInfo {
		first := -1
		for _, s := range bi.CondSignals {
			i, ok := index[s]
			if !ok {
				continue
			}
			if first == -1 {
				first = i
			} else {
				union(first, i)
			}
		}
	}
	// Transition-level coupling: if register B's next-state (or comb
	// control signal B's value) depends on register A, solving for B
	// requires A's state, so they explore together.
	if tr != nil {
		byName := map[string]int{} // "cur.<name>" -> position in regs
		for i, r := range regs {
			byName[CurVar+r.Sig.Name] = i
		}
		couple := func(i int, term *smt.Term) {
			for _, v := range term.Vars() {
				if j, ok := byName[v]; ok && j != i {
					union(i, j)
				}
			}
		}
		for i, r := range regs {
			if next, ok := tr.Next[r.Sig.Index]; ok {
				couple(i, next)
			}
			if comb, ok := tr.Comb[r.Sig.Index]; ok && !r.Sig.IsReg {
				couple(i, comb)
			}
		}
	}
	groups := map[int][]ControlReg{}
	var order []int
	for i, r := range regs {
		root := find(i)
		if _, seen := groups[root]; !seen {
			order = append(order, root)
		}
		groups[root] = append(groups[root], r)
	}
	out := make([][]ControlReg, 0, len(order))
	for _, root := range order {
		out = append(out, groups[root])
	}
	return out
}

// Build constructs the CFG over ALL control registers by breadth-first
// symbolic exploration from the given reset valuation (obtained by
// simulating the reset sequence). For multi-FSM designs prefer
// BuildPartition, which explores each cluster separately.
func Build(d *elab.Design, tr *Transition, reset map[int]logic.BV, opts Options) (*Graph, error) {
	return BuildForRegs(d, tr, ControlRegisters(d), reset, opts)
}

// BuildForRegs constructs the CFG restricted to the given control
// registers.
func BuildForRegs(d *elab.Design, tr *Transition, regs []ControlReg, reset map[int]logic.BV, opts Options) (*Graph, error) {
	opts = opts.withDefaults()
	g := &Graph{
		Design:      d,
		Tr:          tr,
		Regs:        regs,
		ByKey:       map[string]int{},
		Checkpoints: map[int]bool{},
		Space:       NodeSpace(regs),
		opts:        opts,
	}
	if len(regs) == 0 {
		return g, nil
	}
	en := g.newEnumerator()
	root := g.addNode(reset)
	queue := []int{root}
	for len(queue) > 0 {
		nid := queue[0]
		queue = queue[1:]
		if len(g.Nodes) >= opts.MaxNodes {
			g.Truncated = true
			break
		}
		succs, truncated := en.successors(g.Nodes[nid])
		if truncated {
			g.Truncated = true
		}
		for _, sv := range succs {
			to, seen := g.ByKey[sv.key]
			if !seen {
				if len(g.Nodes) >= opts.MaxNodes {
					g.Truncated = true
					continue
				}
				to = g.addNode(sv.vals)
				queue = append(queue, to)
			}
			g.addEdge(nid, to)
		}
	}
	for _, n := range g.Nodes {
		if len(n.Out) >= opts.CheckpointFanout {
			g.Checkpoints[n.ID] = true
		}
	}
	return g, nil
}

func (g *Graph) addNode(vals map[int]logic.BV) int {
	clean := map[int]logic.BV{}
	for _, r := range g.Regs {
		v, ok := vals[r.Sig.Index]
		if !ok {
			v = logic.Zero(r.Sig.Width)
		}
		clean[r.Sig.Index] = canonical(v)
	}
	n := &Node{ID: len(g.Nodes), Key: nodeKey(g.Regs, clean), Vals: clean}
	g.Nodes = append(g.Nodes, n)
	g.ByKey[n.Key] = n.ID
	return n.ID
}

func (g *Graph) addEdge(from, to int) {
	// De-duplicate parallel edges.
	for _, eid := range g.Nodes[from].Out {
		if g.Edges[eid].To == to {
			return
		}
	}
	e := Edge{ID: len(g.Edges), From: from, To: to}
	g.Edges = append(g.Edges, e)
	g.Nodes[from].Out = append(g.Nodes[from].Out, e.ID)
	g.Nodes[to].In = append(g.Nodes[to].In, e.ID)
}

// destTerms builds, for every control register, the term giving its
// value at the destination node (sequential: next-state; combinational:
// re-evaluated under second-step inputs and next-state registers).
func (g *Graph) destTerms() map[int]*smt.Term {
	rename := map[string]*smt.Term{}
	for _, r := range g.Tr.Regs {
		if next, ok := g.Tr.Next[r.Index]; ok {
			rename[CurVar+r.Name] = next
		}
	}
	memo := map[*smt.Term]*smt.Term{}
	out := map[int]*smt.Term{}
	for _, cr := range g.Regs {
		idx := cr.Sig.Index
		if cr.Sig.IsReg {
			if next, ok := g.Tr.Next[idx]; ok {
				out[idx] = next
			} else {
				out[idx] = smt.Var(CurVar+cr.Sig.Name, cr.Sig.Width)
			}
			continue
		}
		comb, ok := g.Tr.Comb[idx]
		if !ok {
			out[idx] = smt.Var(HoldVar+cr.Sig.Name, cr.Sig.Width)
			continue
		}
		out[idx] = substitute(comb, rename, memo)
	}
	return out
}

// newSolverFor prepares a solver with the destination variables defined
// and the pins asserted. With a node, its register valuation is asserted
// too; with nil, the current-state variables of the sequential control
// registers are declared but left free, for assumptions to fix.
func (g *Graph) newSolverFor(n *Node) *smt.Solver {
	s := smt.NewSolver()
	dst := g.dstTerms()
	for _, cr := range g.Regs {
		term := dst[cr.Sig.Index]
		DeclareVars(s, term)
		dv := s.Var(dstVar(cr.Sig), cr.Sig.Width)
		s.Assert(smt.Eq(dv, term))
		g.Constraints++
		// Constrain the current state for sequential control registers.
		if cr.Sig.IsReg {
			cv := s.Var(CurVar+cr.Sig.Name, cr.Sig.Width)
			if n != nil {
				s.Assert(smt.Eq(cv, ConstBV(n.Vals[cr.Sig.Index])))
			}
			g.Constraints++
		}
	}
	// Pin requested inputs in name order: assertion order fixes the
	// solver's variable numbering.
	pins := make([]string, 0, len(g.opts.Pin))
	for name := range g.opts.Pin {
		pins = append(pins, name)
	}
	sort.Strings(pins)
	for _, name := range pins {
		v := g.opts.Pin[name]
		pv := s.Var(InVar+name, v.Width())
		s.Assert(smt.Eq(pv, ConstBV(v)))
		g.Constraints++
	}
	return s
}

// enumerator enumerates a cluster's one-step successors on one solver:
// the transition relation is blasted once, and each node's flop values
// are assumption literals for that node's query only.
type enumerator struct {
	g    *Graph
	s    *smt.Solver
	over []string
	// perNode is the constraint count of the equivalent per-node query;
	// Table 3 counts it for every node.
	perNode int
	// memo holds the successor lists by flop valuation. The query never
	// constrains combinational control registers, so nodes that share
	// flop values share successors — and a truncated list must be the
	// same at every such node.
	memo map[string]succList
}

type succList struct {
	succs     []succ
	truncated bool
}

// succ is one successor valuation and its node key.
type succ struct {
	key  string
	vals map[int]logic.BV
}

// newEnumerator is called on a new graph: the per-node query's
// constraints, which newSolverFor counts, are charged per node instead.
func (g *Graph) newEnumerator() *enumerator {
	en := &enumerator{g: g, s: g.newSolverFor(nil), memo: map[string]succList{}}
	en.perNode, g.Constraints = g.Constraints, 0
	for _, cr := range g.Regs {
		en.over = append(en.over, dstVar(cr.Sig))
	}
	return en
}

// successors returns the distinct destination valuations reachable from
// node n in one step, in nodeKey order so that node numbering depends on
// the successor set and not on the solver's search order. When there
// are more than MaxSuccessors, the first-found MaxSuccessors are kept
// and truncated is true.
func (en *enumerator) successors(n *Node) ([]succ, bool) {
	g := en.g
	g.Constraints += en.perNode
	var flops strings.Builder
	for _, cr := range g.Regs {
		if cr.Sig.IsReg {
			flops.WriteString(n.Vals[cr.Sig.Index].BitString())
			flops.WriteByte('|')
		}
	}
	if l, ok := en.memo[flops.String()]; ok {
		return l.succs, l.truncated
	}
	var assume []smt.Lit
	for _, cr := range g.Regs {
		if cr.Sig.IsReg {
			assume = append(assume, en.s.Lits(CurVar+cr.Sig.Name, n.Vals[cr.Sig.Index])...)
		}
	}
	models := en.s.SolveN(g.opts.MaxSuccessors+1, en.over, assume...)
	truncated := false
	if len(models) > g.opts.MaxSuccessors {
		models = models[:g.opts.MaxSuccessors]
		truncated = true
	}
	out := make([]succ, 0, len(models))
	for _, m := range models {
		vals := map[int]logic.BV{}
		for _, cr := range g.Regs {
			vals[cr.Sig.Index] = m[dstVar(cr.Sig)]
		}
		out = append(out, succ{nodeKey(g.Regs, vals), vals})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	en.memo[flops.String()] = succList{out, truncated}
	return out, truncated
}

// StepPlan is a solved input assignment that steers the design toward a
// target control valuation in one applied vector: the clock edge updates
// the registers and the combinational control signals re-settle under
// the same inputs.
type StepPlan struct {
	Inputs map[string]logic.BV
}

// SolveStep finds input vectors that move the design from the current
// register valuation to the wanted control valuation (§4.7–4.8). want
// may constrain any subset of the graph's control registers. context
// optionally pins OTHER sequential registers (outside this graph's
// cluster) to their concrete simulator values — the paper's
// "substitutes concrete register values" (§3) — which makes plans exact
// on multi-cluster designs. Returns nil when no such input exists.
func (g *Graph) SolveStep(cur, want, context map[int]logic.BV, seed int64) *StepPlan {
	plan, _ := g.SolveStepStats(cur, want, context, seed)
	return plan
}

// SolveStepStats is SolveStep plus the dispatch's solver statistics
// (conflicts, decisions, propagations, formula size, bit-blast and CDCL
// wall time), which the engine surfaces through the telemetry layer and
// the campaign report.
func (g *Graph) SolveStepStats(cur, want, context map[int]logic.BV, seed int64) (*StepPlan, smt.SolveStats) {
	node := &Node{Vals: map[int]logic.BV{}}
	for _, cr := range g.Regs {
		if v, ok := cur[cr.Sig.Index]; ok {
			node.Vals[cr.Sig.Index] = canonical(v)
		} else {
			node.Vals[cr.Sig.Index] = logic.Zero(cr.Sig.Width)
		}
	}
	s := g.newSolverFor(node)
	if seed != 0 {
		s.SetRand(newRand(seed))
	}
	inCluster := map[int]bool{}
	for _, cr := range g.Regs {
		inCluster[cr.Sig.Index] = true
	}
	// Pin the context registers in sorted index order: assertion order
	// fixes the solver's variable numbering, and with it which of
	// several satisfying models a seeded solve returns — map order here
	// would make the whole campaign trajectory run-to-run nondeterministic.
	ctxIdx := make([]int, 0, len(context))
	for idx := range context {
		if inCluster[idx] {
			continue
		}
		if !g.Design.Signals[idx].IsReg {
			continue
		}
		ctxIdx = append(ctxIdx, idx)
	}
	sort.Ints(ctxIdx)
	for _, idx := range ctxIdx {
		sig := g.Design.Signals[idx]
		cv := s.Var(CurVar+sig.Name, sig.Width)
		s.Assert(smt.Eq(cv, ConstBV(context[idx])))
		g.Constraints++
	}
	for _, cr := range g.Regs {
		if v, ok := want[cr.Sig.Index]; ok {
			s.Assert(smt.Eq(s.Var(dstVar(cr.Sig), cr.Sig.Width), ConstBV(v)))
			g.Constraints++
		}
	}
	if s.Solve() != smt.Sat {
		return nil, s.LastStats()
	}
	m := s.Model()
	plan := &StepPlan{Inputs: map[string]logic.BV{}}
	for name, v := range m {
		if strings.HasPrefix(name, InVar) {
			plan.Inputs[name[len(InVar):]] = v
		}
	}
	return plan, s.LastStats()
}

// NodeOf returns the node ID matching the given control valuation, or -1.
func (g *Graph) NodeOf(vals map[int]logic.BV) int {
	key := nodeKey(g.Regs, vals)
	if id, ok := g.ByKey[key]; ok {
		return id
	}
	return -1
}

// NearestCheckpoint walks backwards from node id to the closest
// checkpoint (including id itself); -1 when none is reachable.
func (g *Graph) NearestCheckpoint(id int) int {
	if id < 0 || id >= len(g.Nodes) {
		return -1
	}
	visited := map[int]bool{id: true}
	queue := []int{id}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if g.Checkpoints[n] {
			return n
		}
		for _, eid := range g.Nodes[n].In {
			from := g.Edges[eid].From
			if !visited[from] {
				visited[from] = true
				queue = append(queue, from)
			}
		}
	}
	return -1
}

// UncoveredFrom returns the edges out of node id not present in covered.
func (g *Graph) UncoveredFrom(id int, covered map[int]bool) []Edge {
	var out []Edge
	if id < 0 || id >= len(g.Nodes) {
		return nil
	}
	for _, eid := range g.Nodes[id].Out {
		if !covered[eid] {
			out = append(out, g.Edges[eid])
		}
	}
	return out
}

// Stats summarizes the graph for Table 3.
type Stats struct {
	Nodes       int
	Edges       int
	Checkpoints int
	DepEqns     int
	Constraints int
	Space       uint64
}

// Stats returns the graph's summary statistics.
func (g *Graph) Stats() Stats {
	return Stats{
		Nodes:       len(g.Nodes),
		Edges:       len(g.Edges),
		Checkpoints: len(g.Checkpoints),
		DepEqns:     g.Tr.EqCount,
		Constraints: g.Constraints,
		Space:       g.Space,
	}
}

// String renders a compact description.
func (g *Graph) String() string {
	st := g.Stats()
	return fmt.Sprintf("cfg{regs=%d nodes=%d edges=%d checkpoints=%d space=%d}",
		len(g.Regs), st.Nodes, st.Edges, st.Checkpoints, st.Space)
}
