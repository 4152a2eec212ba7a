package main

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"os"
	"time"

	"repro/internal/fleet"
)

// The -fleet mode renders the whole-fleet rollup JSON that `fuzzctl
// fleet -out` dumps (the /v1/fleet control-surface document): one row
// per campaign with its progress and the admission-control telemetry
// — ingest queue depth and bytes, accepted batches, 429 rejections,
// dropped batches — that the Prometheus endpoint exports per
// campaign. Like the trace report, the HTML output is a pure function
// of the input document.

func runFleetReport(w io.Writer, data []byte, htmlOut string) error {
	var st fleet.FleetStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("invalid fleet rollup: %w", err)
	}
	renderFleetText(w, st)
	if htmlOut != "" {
		return writeFleetHTML(w, htmlOut, st)
	}
	return nil
}

func campState(c fleet.CampaignStatus) string {
	switch {
	case c.Cancelled:
		return "cancelled"
	case c.BudgetStop:
		return "budget-stop"
	case c.Done:
		return "done"
	default:
		return "running"
	}
}

func renderFleetText(w io.Writer, st fleet.FleetStatus) {
	fmt.Fprintf(w, "Fleet rollup: %d campaign(s), up %s\n\n",
		len(st.Campaigns), time.Duration(st.UptimeNS).Round(time.Second))
	fmt.Fprintf(w, "%-20s %-12s %5s %5s %9s %7s %9s %6s %6s %6s %8s\n",
		"campaign", "state", "ranks", "done", "vectors", "points",
		"batches", "429s", "drops", "queue", "solver")
	for _, c := range st.Campaigns {
		fmt.Fprintf(w, "%-20s %-12s %5d %5d %9d %7d %9d %6d %6d %6d %7.1fs\n",
			c.Campaign, campState(c), c.Workers, c.RanksDone, c.Vectors, c.Points,
			c.Batches, c.Rejected429, c.Dropped, c.QueueDepth,
			float64(c.SolverNS)/1e9)
	}
}

func writeFleetHTML(w io.Writer, path string, st fleet.FleetStatus) error {
	buf := []byte(fleetHTML(st))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote fleet rollup to %s (%d bytes)\n", path, len(buf))
	return nil
}

func fleetHTML(st fleet.FleetStatus) string {
	var maxVec uint64 = 1
	for _, c := range st.Campaigns {
		if c.Vectors > maxVec {
			maxVec = c.Vectors
		}
	}
	out := `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>SymbFuzz fleet rollup</title>
<style>
body{font-family:system-ui,sans-serif;margin:2em;color:#222}
h1{font-size:1.3em} h2{font-size:1.1em;margin-top:1.5em}
table{border-collapse:collapse;font-size:0.9em}
th,td{border:1px solid #ccc;padding:0.35em 0.6em;text-align:right}
th{background:#f0f0f0} td.name{text-align:left;font-weight:600}
td.state-running{color:#06c} td.state-done{color:#080}
td.state-cancelled,td.state-budget-stop{color:#a50}
.bar{fill:#4a90d9}
</style></head><body>
<h1>SymbFuzz fleet rollup</h1>
`
	out += fmt.Sprintf("<p>%d campaign(s), coordinator up %s.</p>\n",
		len(st.Campaigns), time.Duration(st.UptimeNS).Round(time.Second))

	out += `<h2>Campaigns</h2>
<table><tr><th>campaign</th><th>state</th><th>ranks</th><th>done</th>
<th>vectors</th><th>points</th><th>solver s</th></tr>
`
	for _, c := range st.Campaigns {
		state := campState(c)
		out += fmt.Sprintf("<tr><td class=\"name\">%s</td><td class=\"state-%s\">%s</td>"+
			"<td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%.1f</td></tr>\n",
			html.EscapeString(c.Campaign), state, state,
			c.Workers, c.RanksDone, c.Vectors, c.Points, float64(c.SolverNS)/1e9)
	}
	out += "</table>\n"

	out += `<h2>Admission &amp; queue telemetry</h2>
<table><tr><th>campaign</th><th>queue depth</th><th>queue bytes</th>
<th>batches</th><th>429 rejections</th><th>dropped</th></tr>
`
	for _, c := range st.Campaigns {
		out += fmt.Sprintf("<tr><td class=\"name\">%s</td><td>%d</td><td>%d</td>"+
			"<td>%d</td><td>%d</td><td>%d</td></tr>\n",
			html.EscapeString(c.Campaign),
			c.QueueDepth, c.QueueBytes, c.Batches, c.Rejected429, c.Dropped)
	}
	out += "</table>\n"

	// Vector-progress bars: one SVG, scale fixed by the busiest
	// campaign so the rendering is a pure function of the document.
	barH, gap, width := 22, 6, 420
	svgH := len(st.Campaigns)*(barH+gap) + gap
	out += fmt.Sprintf("<h2>Vectors by campaign</h2>\n<svg width=\"%d\" height=\"%d\" role=\"img\">\n",
		width+160, svgH)
	for i, c := range st.Campaigns {
		y := gap + i*(barH+gap)
		w := int(uint64(width) * c.Vectors / maxVec)
		out += fmt.Sprintf("<text x=\"0\" y=\"%d\" font-size=\"12\">%s</text>\n",
			y+barH-7, html.EscapeString(c.Campaign))
		out += fmt.Sprintf("<rect class=\"bar\" x=\"150\" y=\"%d\" width=\"%d\" height=\"%d\"></rect>\n",
			y, w, barH)
		out += fmt.Sprintf("<text x=\"%d\" y=\"%d\" font-size=\"11\">%d</text>\n",
			150+w+4, y+barH-7, c.Vectors)
	}
	out += "</svg>\n</body></html>\n"
	return out
}
