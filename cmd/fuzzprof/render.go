package main

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// renderReport writes the terminal cost report. Everything except the
// explicitly-marked annotation columns is derived from deterministic
// counters, so the same trace always renders the same bytes.
func renderReport(w io.Writer, d *obs.CostLedger, topN, width int) {
	fmt.Fprintf(w, "campaign cost ledger: %d rank(s)\n", d.Workers)
	t := d.Totals
	fmt.Fprintf(w, "totals: %d sim evals; %d solver dispatches (%d sat, %d unsat, %d infeasible)\n",
		t.Evals, t.Dispatches, t.Sat, t.Unsat, t.Infeasible)
	fmt.Fprintf(w, "        %d clauses, %d conflicts, %d restarts; %d vars sliced away; %d coverage points unlocked\n",
		t.Clauses, t.Conflicts, t.Restarts, t.SlicedVars, t.Unlocked)

	solver, sim := mergeSolver(d), mergeSim(d)

	if len(solver) > 0 {
		fmt.Fprintf(w, "\nsolver cost treemap (CNF clauses per CFG target):\n")
		items := make([]item, 0, len(solver))
		for _, s := range solver {
			wt := s.Clauses
			if wt <= 0 {
				wt = s.Dispatches
			}
			items = append(items, item{label: fmt.Sprintf("g%d:e%d %s", s.Graph, s.Edge, pctOf(s.Clauses, t.Clauses)), weight: wt})
		}
		sort.SliceStable(items, func(i, j int) bool {
			if items[i].weight != items[j].weight {
				return items[i].weight > items[j].weight
			}
			return items[i].label < items[j].label
		})
		if len(items) > 24 {
			var rest int64
			for _, it := range items[24:] {
				rest += it.weight
			}
			items = append(items[:24], item{label: fmt.Sprintf("+%d more", len(solver)-24), weight: rest})
		}
		height := 12
		if len(items) <= 4 {
			height = 8
		}
		fmt.Fprint(w, renderTreemap(layoutTreemap(items, width, height), width, height))
	}

	if len(solver) > 0 {
		fmt.Fprintf(w, "\ntop solver targets by clauses:\n")
		fmt.Fprintf(w, "  %-10s %6s %5s %6s %5s %9s %9s %7s %8s %10s\n",
			"target", "disp", "sat", "unsat", "infea", "clauses", "conflicts", "sliced", "unlocked", "clauses/pt")
		rows := append([]obs.SolverEntry(nil), solver...)
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

	if len(sim) > 0 {
		fmt.Fprintf(w, "\nhot simulator processes (levelized; ns/eval is a sampled annotation):\n")
		fmt.Fprintf(w, "  %-40s %-4s %5s %12s %9s\n", "process", "kind", "level", "evals", "ns/eval")
		rows := append([]obs.SimEntry(nil), sim...)
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
		fmt.Fprint(w, renderCurve(curve, width))
	}
}

// mergeSolver folds per-rank solver entries into campaign-wide
// per-target entries, ordered by (graph, edge).
func mergeSolver(d *obs.CostLedger) []obs.SolverEntry {
	byKey := map[[2]int]*obs.SolverEntry{}
	var keys [][2]int
	for _, r := range d.Ranks {
		for _, s := range r.Solver {
			k := [2]int{s.Graph, s.Edge}
			e := byKey[k]
			if e == nil {
				cp := s
				byKey[k] = &cp
				keys = append(keys, k)
				continue
			}
			e.Dispatches += s.Dispatches
			e.Sat += s.Sat
			e.Unsat += s.Unsat
			e.CacheLookups += s.CacheLookups
			e.Clauses += s.Clauses
			e.Conflicts += s.Conflicts
			e.Restarts += s.Restarts
			e.SlicedVars += s.SlicedVars
			e.Infeasible += s.Infeasible
			e.Unlocked += s.Unlocked
			e.CacheHits += s.CacheHits
			e.CacheMisses += s.CacheMisses
			e.BlastNS += s.BlastNS
			e.SolveNS += s.SolveNS
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]obs.SolverEntry, 0, len(keys))
	for _, k := range keys {
		out = append(out, *byKey[k])
	}
	return out
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
	var rows [height]string
	for y := 0; y < height; y++ {
		line := make([]byte, width)
		thresh := maxU * int64(height-y) / int64(height)
		for x := 0; x < width; x++ {
			if cols[x] >= thresh && thresh > 0 {
				line[x] = '#'
			} else {
				line[x] = ' '
			}
		}
		rows[y] = string(line)
	}
	out := ""
	for y, r := range rows {
		label := "        "
		if y == 0 {
			label = fmt.Sprintf("%7d ", maxU)
		}
		if y == height-1 {
			label = fmt.Sprintf("%7d ", 0)
		}
		out += "  " + label + "|" + r + "\n"
	}
	out += fmt.Sprintf("          +%s\n", repeatByte('-', width))
	out += fmt.Sprintf("           0 clauses%s%d\n", repeatByte(' ', max(1, width-len(fmt.Sprintf("0 clauses%d", maxC)))), maxC)
	return out
}

func repeatByte(b byte, n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = b
	}
	return string(s)
}

func pctOf(part, total int64) string {
	if total <= 0 {
		return ""
	}
	return fmt.Sprintf("%d%%", part*100/total)
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "~"
}
