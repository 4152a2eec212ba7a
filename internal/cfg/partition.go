package cfg

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/elab"
	"repro/internal/logic"
)

// Partition is the clustered CFG of a design: one Graph per interacting
// control-register group. On a multi-IP SoC the total node population
// is the sum of the per-cluster spaces, matching how the paper's CFG
// for the full OpenTitan stays around 1.4k nodes.
type Partition struct {
	Design *elab.Design
	Tr     *Transition
	Graphs []*Graph
}

// BuildPartition clusters the control registers and builds one graph
// per cluster. opts bounds apply per cluster. Each build reads only the
// design and the transition, so the graphs are built on a pool of
// GOMAXPROCS goroutines and assembled in cluster order; no graph depends
// on which goroutine built it. The graphs share one solver draw log,
// attached afterwards, so consecutive solves under one seed seed it
// once.
func BuildPartition(d *elab.Design, tr *Transition, reset map[int]logic.BV, opts Options) (*Partition, error) {
	clusters := Clusters(d, tr)
	graphs := make([]*Graph, len(clusters))
	errs := make([]error, len(clusters))
	work := make(chan int, len(clusters))
	for i := range clusters {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(clusters)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				graphs[i], errs[i] = BuildForRegs(d, tr, clusters[i], reset, opts)
			}
		}()
	}
	wg.Wait()
	draws := &drawLog{}
	for i, g := range graphs {
		if errs[i] != nil {
			return nil, fmt.Errorf("cfg: cluster %s: %w", clusters[i][0].Sig.Name, errs[i])
		}
		g.draws = draws
	}
	return &Partition{Design: d, Tr: tr, Graphs: graphs}, nil
}

// Stats sums the per-cluster statistics (Table 3 reports totals).
func (p *Partition) Stats() Stats {
	var out Stats
	for _, g := range p.Graphs {
		st := g.Stats()
		out.Nodes += st.Nodes
		out.Edges += st.Edges
		out.Checkpoints += st.Checkpoints
		out.Constraints += st.Constraints
		if out.Space+st.Space < out.Space { // saturate
			out.Space = 1 << 62
		} else {
			out.Space += st.Space
		}
	}
	if p.Tr != nil {
		out.DepEqns = p.Tr.EqCount
	}
	return out
}

// TotalEdges returns the static edge population across clusters.
func (p *Partition) TotalEdges() int {
	n := 0
	for _, g := range p.Graphs {
		n += len(g.Edges)
	}
	return n
}

// HasEdge reports whether cluster graph holds a static edge with the
// given ID. Trace validators use it to cross-check solve attribution
// in telemetry against the elaborated CFG.
func (p *Partition) HasEdge(graph, edge int) bool {
	if graph < 0 || graph >= len(p.Graphs) {
		return false
	}
	for _, e := range p.Graphs[graph].Edges {
		if e.ID == edge {
			return true
		}
	}
	return false
}

// String renders a compact description.
func (p *Partition) String() string {
	st := p.Stats()
	return fmt.Sprintf("partition{clusters=%d nodes=%d edges=%d checkpoints=%d}",
		len(p.Graphs), st.Nodes, st.Edges, st.Checkpoints)
}

// Dot renders the partition as a Graphviz digraph: one subgraph cluster
// per control-register group, checkpoints drawn as double circles.
func (p *Partition) Dot(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n  node [fontsize=10];\n", name)
	for gi, g := range p.Graphs {
		fmt.Fprintf(&sb, "  subgraph cluster_%d {\n", gi)
		var regNames []string
		for _, cr := range g.Regs {
			regNames = append(regNames, cr.Sig.Name)
		}
		fmt.Fprintf(&sb, "    label=%q;\n", strings.Join(regNames, ", "))
		for _, n := range g.Nodes {
			shape := "circle"
			if g.Checkpoints[n.ID] {
				shape = "doublecircle"
			}
			fmt.Fprintf(&sb, "    n%d_%d [label=%q shape=%s];\n",
				gi, n.ID, strings.TrimSuffix(n.Key, "|"), shape)
		}
		for _, e := range g.Edges {
			fmt.Fprintf(&sb, "    n%d_%d -> n%d_%d [label=\"e%d\"];\n",
				gi, e.From, gi, e.To, e.ID)
		}
		fmt.Fprintln(&sb, "  }")
	}
	sb.WriteString("}\n")
	return sb.String()
}
