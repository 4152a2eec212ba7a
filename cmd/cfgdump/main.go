// Command cfgdump performs SymbFuzz's static analyses on a design and
// prints the control registers, the dependency equations (§4.4.2), the
// control-flow graph with checkpoint marking (§4.5), and Table 3-style
// statistics.
//
// Usage:
//
//	cfgdump -bench lc_ctrl
//	cfgdump -src design.sv -top mymodule -equations
package main

import (
	"flag"
	"fmt"
	"os"

	symbfuzz "repro"
	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/sim"
)

func main() {
	var (
		bench  = flag.String("bench", "", "built-in benchmark name")
		srcF   = flag.String("src", "", "HDL source file")
		top    = flag.String("top", "", "top module (with -src)")
		eqns   = flag.Bool("equations", false, "print the dependency equations")
		nodes  = flag.Bool("nodes", false, "print every CFG node")
		dotOut = flag.String("dot", "", "write the clustered CFG as Graphviz to this file")
		maxN   = flag.Int("max-nodes", 4096, "node exploration bound")
		maxS   = flag.Int("max-succ", 32, "per-node successor bound")
		anal   = flag.Bool("analysis", false, "print dataflow analysis facts: levels, per-register cones, statically infeasible CFG targets")
	)
	flag.Parse()

	var (
		b   *symbfuzz.Benchmark
		err error
	)
	if *srcF != "" {
		data, rerr := os.ReadFile(*srcF)
		if rerr != nil {
			fail(rerr)
		}
		if *top == "" {
			fail(fmt.Errorf("-top is required with -src"))
		}
		b = &symbfuzz.Benchmark{Name: *top, Top: *top, Source: string(data)}
	} else {
		b, err = builtin(*bench)
		if err != nil {
			fail(err)
		}
	}
	d, err := b.Elaborate()
	if err != nil {
		fail(err)
	}
	fmt.Printf("design %s: %d signals, %d processes, %d branches\n",
		b.Name, len(d.Signals), len(d.Procs), d.Branches)

	regs := cfg.ControlRegisters(d)
	fmt.Printf("\ncontrol registers (%d):\n", len(regs))
	for _, cr := range regs {
		kind := "comb"
		if cr.Sig.IsReg {
			kind = "flop"
		}
		fmt.Printf("  %-32s width=%-3d domain=%-6d %s\n", cr.Sig.Name, cr.Sig.Width, cr.Domain, kind)
	}
	fmt.Printf("node space (Eqn. 3): %d\n", cfg.NodeSpace(regs))

	tr, err := cfg.BuildTransition(d)
	if err != nil {
		fail(err)
	}
	fmt.Printf("dependency equations generated: %d\n", tr.EqCount)
	if *eqns {
		fmt.Println("\nnext-state dependency equations:")
		for _, r := range tr.Regs {
			if next, ok := tr.Next[r.Index]; ok {
				fmt.Printf("  next(%s) = %s\n", r.Name, next)
			}
		}
	}

	s, err := sim.New(d)
	if err != nil {
		fail(err)
	}
	info := sim.DetectClockReset(d)
	if err := s.ApplyReset(info, 2); err != nil {
		fail(err)
	}
	reset := map[int]logic.BV{}
	for _, cr := range regs {
		reset[cr.Sig.Index] = s.Get(cr.Sig.Index)
	}
	pin := map[string]logic.BV{}
	if info.Reset >= 0 {
		v := logic.Ones(1)
		if !info.ActiveLow {
			v = logic.Zero(1)
		}
		pin[d.Signals[info.Reset].Name] = v
	}
	g, err := cfg.BuildPartition(d, tr, reset, cfg.Options{
		MaxNodes: *maxN, MaxSuccessors: *maxS, Pin: pin,
	})
	if err != nil {
		fail(err)
	}
	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(g.Dot(b.Name)), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote Graphviz CFG to %s\n", *dotOut)
	}
	st := g.Stats()
	fmt.Printf("\nCFG: %d clusters, %d nodes, %d edges, %d checkpoints (fan-out >= 3)\n",
		len(g.Graphs), st.Nodes, st.Edges, st.Checkpoints)
	if *nodes {
		for gi, gg := range g.Graphs {
			fmt.Printf("cluster %d:\n", gi)
			for _, n := range gg.Nodes {
				mark := " "
				if gg.Checkpoints[n.ID] {
					mark = "*"
				}
				fmt.Printf("%s node %-4d out=%-3d in=%-3d key=%s\n",
					mark, n.ID, len(n.Out), len(n.In), n.Key)
			}
		}
	}
	if *anal {
		printAnalysis(d, g)
	}
}

// printAnalysis runs the IR-level dataflow pass and reports what the
// sliced solver path will exploit: combinational depth, the one-step
// cone of every cluster register, and the CFG target nodes whose
// register valuations the value-range lattice already excludes.
func printAnalysis(d *elab.Design, part *cfg.Partition) {
	f := analysis.Analyze(d)
	fmt.Printf("\ndataflow analysis: %d fixpoint iterations, %d combinational levels\n",
		f.Iterations, f.Dep.MaxLevel())
	fmt.Println("cluster register cones (one-step fan-in, cut at registers):")
	for gi, gg := range part.Graphs {
		for _, cr := range gg.Regs {
			cone := f.Dep.Cone(cr.Sig.Index)
			fmt.Printf("  cluster %d %-28s cone=%-4d frontier=%-4d value=%s\n",
				gi, cr.Sig.Name, len(cone), len(f.Dep.ConeInputs(cone)),
				f.SignalValue(cr.Sig.Index).String())
		}
	}
	total, infeasible := 0, 0
	for gi, gg := range part.Graphs {
		cnt := 0
		for _, n := range gg.Nodes {
			for idx, v := range n.Vals {
				if !f.MayHold(idx, v) {
					cnt++
					break
				}
			}
		}
		total += len(gg.Nodes)
		infeasible += cnt
		if cnt > 0 {
			fmt.Printf("  cluster %d: %d/%d nodes statically infeasible\n", gi, cnt, len(gg.Nodes))
		}
	}
	fmt.Printf("statically infeasible CFG targets: %d of %d nodes\n", infeasible, total)
}

func builtin(name string) (*symbfuzz.Benchmark, error) {
	if name == "" {
		return nil, fmt.Errorf("one of -bench or -src is required")
	}
	if b, ok := designs.Lookup(name, true); ok {
		return b, nil
	}
	return nil, fmt.Errorf("unknown benchmark %q", name)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cfgdump:", err)
	os.Exit(1)
}
