package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/obs"
)

// item is one treemap tile: a label and a deterministic weight.
type item struct {
	label  string
	weight int64
}

// cell is a laid-out tile in character coordinates.
type cell struct {
	item
	x, y, w, h int
}

// layoutTreemap places items (sorted descending by weight, ties by
// label — the caller guarantees order) into a w×h character grid with
// a recursive binary slice-and-dice: split the item list into two
// weight-balanced halves, split the rectangle along its longer axis
// proportionally, recurse. Purely integer arithmetic on deterministic
// weights, so the layout is stable across runs.
func layoutTreemap(items []item, w, h int) []cell {
	var out []cell
	layoutRect(items, 0, 0, w, h, &out)
	return out
}

func layoutRect(items []item, x, y, w, h int, out *[]cell) {
	if len(items) == 0 || w <= 0 || h <= 0 {
		return
	}
	if len(items) == 1 {
		*out = append(*out, cell{item: items[0], x: x, y: y, w: w, h: h})
		return
	}
	var total int64
	for _, it := range items {
		total += it.weight
	}
	if total <= 0 {
		total = int64(len(items)) // degenerate: equal split
	}
	// Walk until the prefix holds at least half the weight (always at
	// least one item, never all of them).
	var acc int64
	cut := 1
	for i := 0; i < len(items)-1; i++ {
		wt := items[i].weight
		if wt <= 0 {
			wt = 1
		}
		acc += wt
		cut = i + 1
		if acc*2 >= total {
			break
		}
	}
	var left int64
	for _, it := range items[:cut] {
		wt := it.weight
		if wt <= 0 {
			wt = 1
		}
		left += wt
	}
	var all int64
	for _, it := range items {
		wt := it.weight
		if wt <= 0 {
			wt = 1
		}
		all += wt
	}
	if w >= h {
		lw := int(int64(w) * left / all)
		if lw < 1 {
			lw = 1
		}
		if lw >= w {
			lw = w - 1
		}
		layoutRect(items[:cut], x, y, lw, h, out)
		layoutRect(items[cut:], x+lw, y, w-lw, h, out)
	} else {
		lh := int(int64(h) * left / all)
		if lh < 1 {
			lh = 1
		}
		if lh >= h {
			lh = h - 1
		}
		layoutRect(items[:cut], x, y, w, lh, out)
		layoutRect(items[cut:], x, y+lh, w, h-lh, out)
	}
}

// renderTreemap draws laid-out cells as ASCII boxes with labels.
func renderTreemap(cells []cell, w, h int) string {
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	put := func(x, y int, b byte) {
		if x >= 0 && x < w && y >= 0 && y < h {
			grid[y][x] = b
		}
	}
	for _, c := range cells {
		for i := 0; i < c.w; i++ {
			put(c.x+i, c.y, '-')
			put(c.x+i, c.y+c.h-1, '-')
		}
		for i := 0; i < c.h; i++ {
			put(c.x, c.y+i, '|')
			put(c.x+c.w-1, c.y+i, '|')
		}
		put(c.x, c.y, '+')
		put(c.x+c.w-1, c.y, '+')
		put(c.x, c.y+c.h-1, '+')
		put(c.x+c.w-1, c.y+c.h-1, '+')
		if c.w >= 4 && c.h >= 3 {
			label := c.label
			if len(label) > c.w-2 {
				label = label[:c.w-2]
			}
			for i := 0; i < len(label); i++ {
				put(c.x+1+i, c.y+1, label[i])
			}
		}
	}
	var sb strings.Builder
	for _, row := range grid {
		sb.Write(row)
		sb.WriteByte('\n')
	}
	return sb.String()
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
