package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

const (
	topN       = 10 // rows in the hot-target and hot-process tables
	curveWidth = 72 // cost-curve width in characters
)

// renderLedger writes the cost-ledger section. Everything except the
// explicitly-marked annotation columns is derived from deterministic
// counters, so the same trace always renders the same bytes.
func renderLedger(w io.Writer, d *obs.CostLedger) {
	fmt.Fprintf(w, "campaign cost ledger: %d rank(s)\n", d.Workers)
	t := d.Totals
	fmt.Fprintf(w, "totals: %d sim evals; %d solver dispatches (%d sat, %d unsat, %d infeasible)\n",
		t.Evals, t.Dispatches, t.Sat, t.Unsat, t.Infeasible)
	fmt.Fprintf(w, "        %d clauses, %d conflicts, %d restarts; %d vars sliced away; %d coverage points unlocked\n",
		t.Clauses, t.Conflicts, t.Restarts, t.SlicedVars, t.Unlocked)

	if rows := d.Targets(); len(rows) > 0 {
		fmt.Fprintf(w, "\ntop solver targets by clauses:\n")
		fmt.Fprintf(w, "  %-10s %6s %5s %6s %5s %9s %9s %7s %8s %10s\n",
			"target", "disp", "sat", "unsat", "infea", "clauses", "conflicts", "sliced", "unlocked", "clauses/pt")
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].Clauses > rows[j].Clauses })
		for i, s := range rows {
			if i >= topN {
				fmt.Fprintf(w, "  ... %d more targets\n", len(rows)-topN)
				break
			}
			per := "-"
			if s.Unlocked > 0 {
				per = fmt.Sprintf("%d", s.Clauses/s.Unlocked)
			}
			fmt.Fprintf(w, "  g%-2d e%-5d %6d %5d %6d %5d %9d %9d %7d %8d %10s\n",
				s.Graph, s.Edge, s.Dispatches, s.Sat, s.Unsat, s.Infeasible,
				s.Clauses, s.Conflicts, s.SlicedVars, s.Unlocked, per)
		}
	}

	if rows := mergeSim(d); len(rows) > 0 {
		fmt.Fprintf(w, "\nhot simulator processes (levelized; ns/eval is a sampled annotation):\n")
		fmt.Fprintf(w, "  %-40s %-4s %5s %12s %9s\n", "process", "kind", "level", "evals", "ns/eval")
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].Evals > rows[j].Evals })
		for i, s := range rows {
			if i >= topN {
				fmt.Fprintf(w, "  ... %d more processes\n", len(rows)-topN)
				break
			}
			ns := "-"
			if s.SampledEvals > 0 {
				ns = fmt.Sprintf("%d", s.SampledNS/int64(s.SampledEvals))
			}
			lvl := fmt.Sprintf("%d", s.Level)
			if s.Level < 0 {
				lvl = "-"
			}
			fmt.Fprintf(w, "  %-40s %-4s %5s %12d %9s\n", trunc(s.Proc, 40), s.Kind, lvl, s.Evals, ns)
		}
	}

	if curve := mergeCurve(d); len(curve) > 1 {
		fmt.Fprintf(w, "\ncoverage unlocked per solver cost (cumulative, %d dispatches):\n", len(curve))
		fmt.Fprint(w, renderCurve(curve, curveWidth))
	}
}

// mergeSim folds per-rank sim entries into campaign-wide per-process
// entries, keeping rank 0's process order (static per design).
func mergeSim(d *obs.CostLedger) []obs.SimEntry {
	byProc := map[string]*obs.SimEntry{}
	var order []string
	for _, r := range d.Ranks {
		for _, s := range r.Sim {
			e := byProc[s.Proc]
			if e == nil {
				cp := s
				byProc[s.Proc] = &cp
				order = append(order, s.Proc)
				continue
			}
			e.Evals += s.Evals
			e.SampledEvals += s.SampledEvals
			e.SampledNS += s.SampledNS
		}
	}
	out := make([]obs.SimEntry, 0, len(order))
	for _, p := range order {
		out = append(out, *byProc[p])
	}
	return out
}

// mergeCurve concatenates rank curves in rank order, renumbering the
// dispatch axis so the x axis is campaign-cumulative.
func mergeCurve(d *obs.CostLedger) []obs.CostPoint {
	var out []obs.CostPoint
	var baseN, baseC, baseK, baseU int64
	for _, r := range d.Ranks {
		var last obs.CostPoint
		for _, p := range r.Curve {
			out = append(out, obs.CostPoint{
				Dispatch:  baseN + p.Dispatch,
				Clauses:   baseC + p.Clauses,
				Conflicts: baseK + p.Conflicts,
				Unlocked:  baseU + p.Unlocked,
			})
			last = p
		}
		baseN += last.Dispatch
		baseC += last.Clauses
		baseK += last.Conflicts
		baseU += last.Unlocked
	}
	return out
}

// renderCurve draws unlocked-coverage (y) against cumulative clauses
// (x) as a fixed-height ASCII plot.
func renderCurve(curve []obs.CostPoint, width int) string {
	const height = 8
	maxC, maxU := curve[len(curve)-1].Clauses, int64(0)
	for _, p := range curve {
		if p.Unlocked > maxU {
			maxU = p.Unlocked
		}
	}
	if maxC == 0 || maxU == 0 {
		return "  (no cost or no unlocked coverage to plot)\n"
	}
	cols := make([]int64, width)
	for i := range cols {
		cols[i] = -1
	}
	for _, p := range curve {
		x := int(p.Clauses * int64(width-1) / maxC)
		if p.Unlocked > cols[x] {
			cols[x] = p.Unlocked
		}
	}
	// Carry forward so gaps plot the running value.
	run := int64(0)
	for i := range cols {
		if cols[i] < 0 {
			cols[i] = run
		} else {
			run = cols[i]
		}
	}
	var b strings.Builder
	for y := 0; y < height; y++ {
		label := "        "
		if y == 0 {
			label = fmt.Sprintf("%7d ", maxU)
		}
		if y == height-1 {
			label = fmt.Sprintf("%7d ", 0)
		}
		line := make([]byte, width)
		thresh := maxU * int64(height-y) / int64(height)
		for x := 0; x < width; x++ {
			if cols[x] >= thresh && thresh > 0 {
				line[x] = '#'
			} else {
				line[x] = ' '
			}
		}
		fmt.Fprintf(&b, "  %s|%s\n", label, line)
	}
	fmt.Fprintf(&b, "          +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "           0 clauses%s%d\n", strings.Repeat(" ", max(1, width-len(fmt.Sprintf("0 clauses%d", maxC)))), maxC)
	return b.String()
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "~"
}

// flameNode is the d3-flamegraph-compatible hierarchy node.
type flameNode struct {
	Name     string       `json:"name"`
	Value    int64        `json:"value"`
	Children []*flameNode `json:"children,omitempty"`
}

// flameJSON converts a ledger into a flamegraph hierarchy. Values are
// the deterministic cost counters — simulator evals on sim leaves, CNF
// clauses on solver leaves (infeasible/zero-clause dispatches count 1
// each so they stay visible) — so the JSON is byte-identical across
// runs of the same seed.
func flameJSON(d *obs.CostLedger) ([]byte, error) {
	root := &flameNode{Name: "campaign"}
	for _, r := range d.Ranks {
		rn := &flameNode{Name: fmt.Sprintf("rank %d", r.Rank)}
		sim := &flameNode{Name: "sim"}
		for _, s := range r.Sim {
			v := int64(s.Evals)
			sim.Value += v
			sim.Children = append(sim.Children, &flameNode{
				Name:  fmt.Sprintf("%s (%s L%d)", s.Proc, s.Kind, s.Level),
				Value: v,
			})
		}
		solver := &flameNode{Name: "solver"}
		graphs := map[int]*flameNode{}
		for _, s := range r.Solver {
			g := graphs[s.Graph]
			if g == nil {
				g = &flameNode{Name: fmt.Sprintf("graph %d", s.Graph)}
				graphs[s.Graph] = g
				solver.Children = append(solver.Children, g)
			}
			v := s.Clauses
			if v <= 0 {
				v = s.Dispatches
			}
			g.Value += v
			solver.Value += v
			g.Children = append(g.Children, &flameNode{
				Name:  fmt.Sprintf("edge %d->%d", s.Graph, s.Edge),
				Value: v,
			})
		}
		if len(sim.Children) > 0 {
			rn.Children = append(rn.Children, sim)
		}
		if len(solver.Children) > 0 {
			rn.Children = append(rn.Children, solver)
		}
		rn.Value = sim.Value + solver.Value
		root.Value += rn.Value
		root.Children = append(root.Children, rn)
	}
	out, err := json.MarshalIndent(root, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
