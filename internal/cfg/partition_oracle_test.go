package cfg_test

// The partition oracle: every builtin's clustered CFG, built on one
// incremental solver per cluster, is checked node by node against a
// fresh solver per node, which is how construction worked before.

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/designs"
	"repro/internal/logic"
	"repro/internal/smt"
)

// partitionStats are the statistics of every builtin's partition at
// MaxSuccessors 32 and 8 (default MaxNodes), as the per-node solver
// construction produced them.
var partitionStats = []struct {
	bench   string
	maxSucc int
	want    cfg.Stats
}{
	{"alu", 32, cfg.Stats{Nodes: 10, Edges: 68, Checkpoints: 8, DepEqns: 18, Constraints: 20, Space: 8}},
	{"bus_arb", 32, cfg.Stats{Nodes: 7, Edges: 43, Checkpoints: 7, DepEqns: 8, Constraints: 28, Space: 8}},
	{"scmi_mailbox", 32, cfg.Stats{Nodes: 12, Edges: 25, Checkpoints: 1, DepEqns: 32, Constraints: 28, Space: 12}},
	{"lc_ctrl", 32, cfg.Stats{Nodes: 14, Edges: 41, Checkpoints: 4, DepEqns: 24, Constraints: 40, Space: 18}},
	{"aes", 32, cfg.Stats{Nodes: 23, Edges: 48, Checkpoints: 2, DepEqns: 40, Constraints: 91, Space: 72}},
	{"otbn_mac", 32, cfg.Stats{Nodes: 4, Edges: 8, Checkpoints: 1, DepEqns: 17, Constraints: 12, Space: 4}},
	{"rom_ctrl", 32, cfg.Stats{Nodes: 17, Edges: 21, Checkpoints: 0, DepEqns: 19, Constraints: 102, Space: 256}},
	{"pwr_mgr", 32, cfg.Stats{Nodes: 7, Edges: 13, Checkpoints: 2, DepEqns: 21, Constraints: 21, Space: 8}},
	{"uart_rx", 32, cfg.Stats{Nodes: 27, Edges: 44, Checkpoints: 0, DepEqns: 23, Constraints: 189, Space: 1024}},
	{"csrng", 32, cfg.Stats{Nodes: 12, Edges: 24, Checkpoints: 1, DepEqns: 28, Constraints: 28, Space: 12}},
	{"sysrst_ctrl", 32, cfg.Stats{Nodes: 41, Edges: 134, Checkpoints: 39, DepEqns: 17, Constraints: 199, Space: 130}},
	{"otp_ctrl_dai", 32, cfg.Stats{Nodes: 6, Edges: 12, Checkpoints: 1, DepEqns: 17, Constraints: 18, Space: 8}},
	{"cva6_mini", 32, cfg.Stats{Nodes: 60, Edges: 588, Checkpoints: 43, DepEqns: 65, Constraints: 192, Space: 74}},
	{"rocket_mini", 32, cfg.Stats{Nodes: 48, Edges: 549, Checkpoints: 37, DepEqns: 61, Constraints: 102, Space: 50}},
	{"mor1kx_mini", 32, cfg.Stats{Nodes: 48, Edges: 549, Checkpoints: 37, DepEqns: 62, Constraints: 102, Space: 50}},
	{"opentitan_mini", 32, cfg.Stats{Nodes: 291, Edges: 2128, Checkpoints: 145, DepEqns: 357, Constraints: 1084, Space: 2164}},
	{"alu", 8, cfg.Stats{Nodes: 10, Edges: 68, Checkpoints: 8, DepEqns: 18, Constraints: 20, Space: 8}},
	{"bus_arb", 8, cfg.Stats{Nodes: 7, Edges: 43, Checkpoints: 7, DepEqns: 8, Constraints: 28, Space: 8}},
	{"scmi_mailbox", 8, cfg.Stats{Nodes: 12, Edges: 25, Checkpoints: 1, DepEqns: 32, Constraints: 28, Space: 12}},
	{"lc_ctrl", 8, cfg.Stats{Nodes: 14, Edges: 37, Checkpoints: 4, DepEqns: 24, Constraints: 40, Space: 18}},
	{"aes", 8, cfg.Stats{Nodes: 23, Edges: 48, Checkpoints: 2, DepEqns: 40, Constraints: 91, Space: 72}},
	{"otbn_mac", 8, cfg.Stats{Nodes: 4, Edges: 8, Checkpoints: 1, DepEqns: 17, Constraints: 12, Space: 4}},
	{"rom_ctrl", 8, cfg.Stats{Nodes: 17, Edges: 21, Checkpoints: 0, DepEqns: 19, Constraints: 102, Space: 256}},
	{"pwr_mgr", 8, cfg.Stats{Nodes: 7, Edges: 13, Checkpoints: 2, DepEqns: 21, Constraints: 21, Space: 8}},
	{"uart_rx", 8, cfg.Stats{Nodes: 27, Edges: 44, Checkpoints: 0, DepEqns: 23, Constraints: 189, Space: 1024}},
	{"csrng", 8, cfg.Stats{Nodes: 12, Edges: 24, Checkpoints: 1, DepEqns: 28, Constraints: 28, Space: 12}},
	{"sysrst_ctrl", 8, cfg.Stats{Nodes: 41, Edges: 134, Checkpoints: 39, DepEqns: 17, Constraints: 199, Space: 130}},
	{"otp_ctrl_dai", 8, cfg.Stats{Nodes: 6, Edges: 12, Checkpoints: 1, DepEqns: 17, Constraints: 18, Space: 8}},
	{"cva6_mini", 8, cfg.Stats{Nodes: 44, Edges: 204, Checkpoints: 27, DepEqns: 65, Constraints: 160, Space: 74}},
	{"rocket_mini", 8, cfg.Stats{Nodes: 32, Edges: 165, Checkpoints: 21, DepEqns: 61, Constraints: 70, Space: 50}},
	{"mor1kx_mini", 8, cfg.Stats{Nodes: 32, Edges: 165, Checkpoints: 21, DepEqns: 62, Constraints: 70, Space: 50}},
	{"opentitan_mini", 8, cfg.Stats{Nodes: 251, Edges: 780, Checkpoints: 105, DepEqns: 357, Constraints: 956, Space: 2164}},
}

// freshSolver blasts node n's one-step query into a new solver: the
// destination terms, n's flop values and the pins, all asserted.
func freshSolver(g *cfg.Graph, n *cfg.Node, pin map[string]logic.BV) *smt.Solver {
	s := smt.NewSolver()
	dst := g.DestTerms()
	for _, cr := range g.Regs {
		term := dst[cr.Sig.Index]
		cfg.DeclareVars(s, term)
		s.Assert(smt.Eq(s.Var("dst."+cr.Sig.Name, cr.Sig.Width), term))
		if cr.Sig.IsReg {
			s.Assert(smt.Eq(s.Var(cfg.CurVar+cr.Sig.Name, cr.Sig.Width), cfg.ConstBV(n.Vals[cr.Sig.Index])))
		}
	}
	names := make([]string, 0, len(pin))
	for name := range pin {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Assert(smt.Eq(s.Var(cfg.InVar+name, pin[name].Width()), cfg.ConstBV(pin[name])))
	}
	return s
}

// freshSuccessors enumerates up to limit successor keys of node n on a
// fresh solver, sorted.
func freshSuccessors(g *cfg.Graph, n *cfg.Node, pin map[string]logic.BV, limit int) []string {
	over := make([]string, 0, len(g.Regs))
	for _, cr := range g.Regs {
		over = append(over, "dst."+cr.Sig.Name)
	}
	var keys []string
	for _, m := range freshSolver(g, n, pin).SolveN(limit, over) {
		var sb strings.Builder
		for _, name := range over {
			sb.WriteString(m[name].BitString())
			sb.WriteByte('|')
		}
		keys = append(keys, sb.String())
	}
	sort.Strings(keys)
	return keys
}

// checkGraph compares every node's successor list with the oracle: an
// untruncated node's list is the complete sorted set, and every kept
// successor of a truncated node is one the fresh solver admits.
func checkGraph(t *testing.T, g *cfg.Graph, pin map[string]logic.BV, maxSucc int) {
	t.Helper()
	if len(g.Nodes) >= 4096 {
		t.Fatalf("cluster %s hit MaxNodes: the oracle needs every node expanded", g.Regs[0].Sig.Name)
	}
	for _, n := range g.Nodes {
		got := make([]string, 0, len(n.Out))
		for _, eid := range n.Out {
			got = append(got, g.Nodes[g.Edges[eid].To].Key)
		}
		want := freshSuccessors(g, n, pin, maxSucc+1)
		if len(want) <= maxSucc {
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("node %s: successors\n  %v\nwant the complete sorted set\n  %v", n.Key, got, want)
			}
			continue
		}
		if len(got) != maxSucc || !sort.StringsAreSorted(got) {
			t.Fatalf("truncated node %s: %d successors %v, want %d in key order", n.Key, len(got), got, maxSucc)
		}
		for _, eid := range n.Out {
			to := g.Nodes[g.Edges[eid].To]
			s := freshSolver(g, n, pin)
			for _, cr := range g.Regs {
				s.Assert(smt.Eq(s.Var("dst."+cr.Sig.Name, cr.Sig.Width), cfg.ConstBV(to.Vals[cr.Sig.Index])))
			}
			if s.Solve() != smt.Sat {
				t.Fatalf("truncated node %s: kept successor %s is not a one-step successor", n.Key, to.Key)
			}
		}
	}
}

// checkSerial compares a partition built on the goroutine pool with one
// assembled from BuildForRegs over Clusters, one cluster after another.
func checkSerial(t *testing.T, bench string, part *cfg.Partition, pin map[string]logic.BV, opts cfg.Options) {
	t.Helper()
	// Each graph's root node holds its registers' reset values.
	reset := map[int]logic.BV{}
	for _, g := range part.Graphs {
		for idx, v := range g.Nodes[0].Vals {
			reset[idx] = v
		}
	}
	opts.Pin = pin
	serial := &cfg.Partition{Design: part.Design, Tr: part.Tr}
	for _, cluster := range cfg.Clusters(part.Design, part.Tr) {
		g, err := cfg.BuildForRegs(part.Design, part.Tr, cluster, reset, opts)
		if err != nil {
			t.Fatal(err)
		}
		serial.Graphs = append(serial.Graphs, g)
	}
	if part.Dot(bench) != serial.Dot(bench) || part.Stats() != serial.Stats() {
		t.Errorf("%s: pooled partition differs from the serial build", bench)
	}
	if len(part.Graphs) != len(serial.Graphs) {
		t.Fatalf("%s: %d graphs, serial build has %d", bench, len(part.Graphs), len(serial.Graphs))
	}
	for i, g := range part.Graphs {
		s := serial.Graphs[i]
		if g.Constraints != s.Constraints || g.Truncated != s.Truncated {
			t.Errorf("%s graph %d: constraints %d truncated %v, serial build %d %v",
				bench, i, g.Constraints, g.Truncated, s.Constraints, s.Truncated)
		}
	}
}

func TestPartitionMatchesPerNodeOracle(t *testing.T) {
	for _, tc := range partitionStats {
		b, ok := designs.FindBenchmark(tc.bench)
		if !ok {
			t.Fatalf("no builtin %s", tc.bench)
		}
		opts := cfg.Options{MaxSuccessors: tc.maxSucc}
		part, pin, _ := buildBench(t, b, opts)
		if st := part.Stats(); st != tc.want {
			t.Errorf("%s at MaxSuccessors %d: stats %+v, want %+v", tc.bench, tc.maxSucc, st, tc.want)
		}
		again, _, _ := buildBench(t, b, opts)
		if part.Dot(tc.bench) != again.Dot(tc.bench) || part.Stats() != again.Stats() {
			t.Errorf("%s at MaxSuccessors %d: two builds differ", tc.bench, tc.maxSucc)
		}
		checkSerial(t, tc.bench, part, pin, opts)
		for _, g := range part.Graphs {
			checkGraph(t, g, pin, tc.maxSucc)
		}
	}
	if len(partitionStats) != 2*len(designs.AllBenchmarks()) {
		t.Errorf("stats table covers %d builds, want every builtin at 32 and 8", len(partitionStats))
	}
}
