package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fleet"
	"repro/internal/watch"
)

// The renderer is a pure function from fleet state to text: no wall
// clock, no map-order iteration, no NS fields. Two renders of the same
// fleet state are byte-identical — CI pins that by diffing two
// `fuzztop -once` captures of a settled fleet.

// sparkRunes is the 8-level bar alphabet, lowest first.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline scales a series of values into bar runes. Constant series
// render mid-scale; an empty series renders empty.
func sparkline(vals []int) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := len(sparkRunes) / 2
		if hi > lo {
			i = (v - lo) * (len(sparkRunes) - 1) / (hi - lo)
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// sparkWidth bounds the sparkline to the newest n samples.
const sparkWidth = 32

// model is everything one frame renders: the fleet rollup plus (when
// the watch plane is up) per-campaign health.
type model struct {
	Campaigns []fleet.CampaignStatus
	Health    map[string]watch.CampaignHealth
	Watch     bool // watch plane reachable
}

// render draws one frame. Campaigns sort by name; alerts arrive
// ID-sorted from the engine and are kept in that order.
func render(m model) string {
	var b strings.Builder
	camps := append([]fleet.CampaignStatus(nil), m.Campaigns...)
	sort.Slice(camps, func(i, j int) bool { return camps[i].Campaign < camps[j].Campaign })

	fmt.Fprintf(&b, "fuzztop — %d campaign(s)", len(camps))
	if !m.Watch {
		b.WriteString("  [watch plane disabled]")
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%-16s %-8s %6s %10s %8s %7s %7s  %s\n",
		"CAMPAIGN", "STATE", "RANKS", "VECTORS", "POINTS", "HEALTH", "ALERTS", "COVERAGE")

	for _, c := range camps {
		state := "run"
		if c.Done {
			state = "done"
		} else if c.Cancelled {
			state = "cancel"
		} else if c.BudgetStop {
			state = "budget"
		}
		health, alerts := "-", "-"
		var spark string
		if h, ok := m.Health[c.Campaign]; ok {
			health = fmt.Sprintf("%d", h.Score)
			alerts = fmt.Sprintf("%d/%d", len(h.Alerts), h.AlertsTotal)
			pts := make([]int, 0, len(h.Series))
			for _, p := range h.Series {
				pts = append(pts, p.Points)
			}
			if len(pts) > sparkWidth {
				pts = pts[len(pts)-sparkWidth:]
			}
			spark = sparkline(pts)
		}
		fmt.Fprintf(&b, "%-16s %-8s %3d/%-2d %10d %8d %7s %7s  %s\n",
			c.Campaign, state, c.RanksDone, c.Workers, c.Vectors, c.Points, health, alerts, spark)
	}

	// Active alerts, campaign-sorted then engine (ID) order.
	var alertLines []string
	for _, c := range camps {
		h, ok := m.Health[c.Campaign]
		if !ok {
			continue
		}
		for _, a := range h.Alerts {
			alertLines = append(alertLines,
				fmt.Sprintf("  %-4s %-40s %s", a.Severity, a.ID, a.Msg))
		}
	}
	if len(alertLines) > 0 {
		b.WriteString("\nACTIVE ALERTS\n")
		for _, l := range alertLines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
