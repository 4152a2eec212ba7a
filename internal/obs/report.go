package obs

import (
	"fmt"
	"html"
	"io"
	"sort"
	"strings"
)

// ReportSchema versions the campaign-report document.
const ReportSchema = "symbfuzz-report/v1"

// SolveRecord is one solve span with its coverage attribution: how
// many coverage tuples the plans it produced unlocked, counting
// remote ranks' cache-hit applications back to the originating solve.
type SolveRecord struct {
	Span      string `json:"span"`
	Lane      int    `json:"lane"`
	Graph     int    `json:"graph"`
	Edge      int    `json:"edge"`
	Outcome   string `json:"outcome"`
	Cache     string `json:"cache,omitempty"`
	Vars      int    `json:"vars"`
	Clauses   int    `json:"clauses"`
	Conflicts int64  `json:"conflicts"`
	Restarts  int64  `json:"restarts"`
	SolveNS   int64  `json:"solve_ns"` // bit-blast + CDCL wall time
	Unlocked  int    `json:"unlocked"` // coverage tuples attributed
	Reuses    int    `json:"reuses"`   // cache hits resolving to this solve
	// SlicedVars is the solve's net cone-of-influence variable saving;
	// Infeasible marks a target refuted statically (no solver ran).
	SlicedVars int64 `json:"sliced_vars,omitempty"`
	Infeasible bool  `json:"infeasible,omitempty"`
}

// UnsolvedTarget is a CFG edge the campaign dispatched solves for
// without ever reaching sat.
type UnsolvedTarget struct {
	Graph     int   `json:"graph"`
	Edge      int   `json:"edge"`
	Attempts  int   `json:"attempts"`
	Conflicts int64 `json:"conflicts"`
	// Infeasible counts attempts refuted statically by value-range
	// slicing — an edge whose every attempt was infeasible is dead by
	// construction, not hard for the solver.
	Infeasible int `json:"infeasible,omitempty"`
}

// SlicingSummary aggregates the campaign's cone-of-influence slicing
// effect from the lanes' campaign_end totals.
type SlicingSummary struct {
	SlicedVars        int64 `json:"sliced_vars"`
	InfeasibleTargets int64 `json:"infeasible_targets"`
}

// LaneBreakdown aggregates one lane's solver effort.
type LaneBreakdown struct {
	Lane      int   `json:"lane"`
	Solves    int   `json:"solves"`
	Sat       int   `json:"sat"`
	CacheHits int   `json:"cache_hits"`
	BlastNS   int64 `json:"blast_ns"`
	CDCLNS    int64 `json:"cdcl_ns"`
	Plans     int   `json:"plans"`
}

// CurveSample is one coverage-over-time sample of a lane.
type CurveSample struct {
	TNS     int64  `json:"t_ns"`
	Vectors uint64 `json:"vectors"`
	Points  int    `json:"points"`
}

// CampaignReport is the flight recorder's offline digest of a trace:
// everything the HTML and terminal reports render. Building it is a
// pure function of the event stream, so the rendered output is
// byte-identical across runs on the same trace.
type CampaignReport struct {
	Schema    string                `json:"schema"`
	Summary   TraceSummary          `json:"summary"`
	Spans     SpanSummary           `json:"spans"`
	Curves    map[int][]CurveSample `json:"curves"` // lane → coverage over time
	TopSolves []SolveRecord         `json:"top_solves"`
	Unsolved  []UnsolvedTarget      `json:"unsolved"`
	Lanes     []LaneBreakdown       `json:"lanes"`
	Slicing   SlicingSummary        `json:"slicing"`
	Chain     *CausalChain          `json:"chain,omitempty"`
	// Ledger attributes the campaign's simulator and solver effort to
	// design constructs, rank by rank.
	Ledger *CostLedger `json:"ledger"`
}

// BuildCampaignReport is the one digest of a campaign trace. It checks
// the parsed trace's schema (ValidateEvents) and spans (ValidateSpans),
// folds every lane's solver ledger once, and derives from that fold the
// cost ledger and the Unsolved and Lanes tables.
func BuildCampaignReport(events []Event) (*CampaignReport, error) {
	sum, err := ValidateEvents(events)
	if err != nil {
		return nil, err
	}
	spanSum, err := ValidateSpans(events)
	if err != nil {
		return nil, fmt.Errorf("span integrity: %w", err)
	}
	lanes := foldLanes(events)
	r := &CampaignReport{Schema: ReportSchema, Summary: *sum, Spans: *spanSum,
		Curves: map[int][]CurveSample{}, Ledger: newCostLedger(lanes)}

	solves := map[string]*SolveRecord{}
	for i := range events {
		ev := &events[i]
		switch {
		case ev.Type == EvCampaignEnd:
			r.Slicing.SlicedVars += ev.SlicedVars
			r.Slicing.InfeasibleTargets += ev.InfeasibleTargets
		case ev.Type == EvSpan && ev.Kind == SpanInterval:
			r.Curves[ev.Worker] = append(r.Curves[ev.Worker], CurveSample{TNS: ev.TNS, Vectors: ev.Vectors, Points: ev.Points})
		case ev.Type == EvSpan && ev.Kind == SpanSolve:
			solves[ev.Span] = &SolveRecord{
				Span: ev.Span, Lane: ev.Worker, Graph: ev.Graph, Edge: ev.Edge,
				Outcome: ev.Outcome, Cache: ev.Cache,
				Vars: ev.Vars, Clauses: ev.Clauses,
				Conflicts: ev.Conflicts, Restarts: ev.Restarts,
				SolveNS:    ev.BlastNS + ev.SolveNS,
				SlicedVars: ev.SlicedVars, Infeasible: ev.Infeasible,
			}
		}
	}

	// Attribute coverage gains: each plan_apply credits its gain to the
	// local solve, or — when the plan was a cache hit with a resolvable
	// origin (the apply carries its solve's cache attribution) — to the
	// originating solve, crediting the rank that actually paid for the
	// CDCL run. The same pass counts each lane's applied plans.
	plans := map[int]int{}
	for i := range events {
		ev := &events[i]
		if ev.Type != EvSpan || ev.Kind != SpanPlanApply {
			continue
		}
		plans[ev.Worker]++
		credit := solves[ev.Parent]
		if credit == nil {
			continue
		}
		if ev.Cache == "hit" && ev.OriginSpan != "" {
			if org, ok := solves[ev.OriginSpan]; ok {
				credit = org
				org.Reuses++
			}
		}
		credit.Unlocked += ev.Gained
	}

	// Top solves: coverage unlocked descending, span ID ascending.
	all := make([]*SolveRecord, 0, len(solves))
	for _, sv := range solves {
		all = append(all, sv)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Unlocked != all[j].Unlocked {
			return all[i].Unlocked > all[j].Unlocked
		}
		return all[i].Span < all[j].Span
	})
	for i, sv := range all {
		if i == 10 {
			break
		}
		r.TopSolves = append(r.TopSolves, *sv)
	}

	// Per-lane solver time and the unsolved targets are views of every
	// lane's ledger rows, numbered by worker ID.
	ids := make([]int, 0, len(lanes))
	for w := range lanes {
		ids = append(ids, w)
	}
	sort.Ints(ids)
	rows := make([]RankLedger, 0, len(ids))
	for _, w := range ids {
		lb := LaneBreakdown{Lane: w, Plans: plans[w]}
		for _, t := range lanes[w].led.Solver {
			lb.Solves += int(t.Dispatches)
			lb.Sat += int(t.Sat)
			lb.CacheHits += int(t.CacheHits)
			lb.BlastNS += t.BlastNS
			lb.CDCLNS += t.SolveNS
		}
		if lb.Solves > 0 || lb.Plans > 0 {
			r.Lanes = append(r.Lanes, lb)
		}
		rows = append(rows, lanes[w].led)
	}
	for _, t := range mergeTargets(rows) {
		if t.Dispatches > 0 && t.Sat == 0 {
			r.Unsolved = append(r.Unsolved, UnsolvedTarget{Graph: t.Graph, Edge: t.Edge,
				Attempts: int(t.Dispatches), Conflicts: t.Conflicts, Infeasible: int(t.Infeasible)})
		}
	}

	r.Chain, _ = FindCrossRankChain(events)
	return r, nil
}

// RenderText writes the terminal campaign report.
func RenderText(w io.Writer, r *CampaignReport) {
	fmt.Fprintf(w, "campaign report (%s)\n", r.Schema)
	fmt.Fprintf(w, "  events %d  spans %d  wall %.3fs  vectors %d  coverage %d  bugs %d\n",
		r.Summary.Events, r.Spans.Spans, float64(r.Summary.WallNS)/1e9,
		r.Summary.FinalVectors, r.Summary.FinalPoints, r.Summary.Bugs)
	if r.Spans.CrossRankLinks > 0 || r.Spans.DanglingOrigins > 0 {
		fmt.Fprintf(w, "  cross-rank cache links %d  dangling origins %d\n",
			r.Spans.CrossRankLinks, r.Spans.DanglingOrigins)
	}
	if r.Slicing.SlicedVars > 0 || r.Slicing.InfeasibleTargets > 0 {
		fmt.Fprintf(w, "  slicing: %d solver vars sliced away, %d targets refuted statically\n",
			r.Slicing.SlicedVars, r.Slicing.InfeasibleTargets)
	}
	if r.Chain != nil {
		fmt.Fprintf(w, "\ncross-process causal chain (+%d coverage):\n", r.Chain.Gained)
		fmt.Fprintf(w, "  %s -> %s (rank %d solve) -> cache -> %s (rank %d hit) -> %s\n",
			r.Chain.Stagnation, r.Chain.Solve, r.Chain.OriginRank,
			r.Chain.HitSolve, r.Chain.HitRank, r.Chain.PlanApply)
	}
	if len(r.TopSolves) > 0 {
		fmt.Fprintf(w, "\ntop solves by coverage unlocked:\n")
		fmt.Fprintf(w, "  %-14s %4s %5s %5s %7s %8s %8s %8s %6s %6s\n",
			"span", "lane", "graph", "edge", "outcome", "unlocked", "reuses", "conflicts", "sliced", "cache")
		for _, sv := range r.TopSolves {
			fmt.Fprintf(w, "  %-14s %4d %5d %5d %7s %8d %8d %8d %6d %6s\n",
				sv.Span, sv.Lane, sv.Graph, sv.Edge, sv.Outcome, sv.Unlocked, sv.Reuses, sv.Conflicts, sv.SlicedVars, sv.Cache)
		}
	}
	if len(r.Unsolved) > 0 {
		fmt.Fprintf(w, "\nunsolved targets:\n")
		fmt.Fprintf(w, "  %5s %5s %9s %10s %10s\n", "graph", "edge", "attempts", "conflicts", "infeasible")
		for _, u := range r.Unsolved {
			fmt.Fprintf(w, "  %5d %5d %9d %10d %10d\n", u.Graph, u.Edge, u.Attempts, u.Conflicts, u.Infeasible)
		}
	}
	if len(r.Lanes) > 0 {
		fmt.Fprintf(w, "\nper-rank solver time:\n")
		fmt.Fprintf(w, "  %4s %7s %5s %5s %6s %12s %12s\n",
			"lane", "solves", "sat", "hits", "plans", "blast_ms", "cdcl_ms")
		for _, lb := range r.Lanes {
			fmt.Fprintf(w, "  %4d %7d %5d %5d %6d %12.3f %12.3f\n",
				lb.Lane, lb.Solves, lb.Sat, lb.CacheHits, lb.Plans,
				float64(lb.BlastNS)/1e6, float64(lb.CDCLNS)/1e6)
		}
	}
}

// svgPalette colors lanes in the coverage chart (cycled).
var svgPalette = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"}

// coverageSVG renders the per-lane coverage-over-vectors chart as an
// inline SVG. Deterministic: lanes sorted, integer-millesimal coords.
func coverageSVG(r *CampaignReport) string {
	const W, H, pad = 720, 280, 30
	var maxV uint64
	maxP := 1
	laneIDs := make([]int, 0, len(r.Curves))
	for id, samples := range r.Curves {
		laneIDs = append(laneIDs, id)
		for _, s := range samples {
			if s.Vectors > maxV {
				maxV = s.Vectors
			}
			if s.Points > maxP {
				maxP = s.Points
			}
		}
	}
	sort.Ints(laneIDs)
	if maxV == 0 {
		maxV = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg">`, W, H)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="#fafafa" stroke="#ccc"/>`, W, H)
	for i, id := range laneIDs {
		color := svgPalette[i%len(svgPalette)]
		var pts []string
		for _, s := range r.Curves[id] {
			x := pad + float64(W-2*pad)*float64(s.Vectors)/float64(maxV)
			y := float64(H-pad) - float64(H-2*pad)*float64(s.Points)/float64(maxP)
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
		}
		if len(pts) > 0 {
			fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>`,
				color, strings.Join(pts, " "))
		}
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" fill="%s">lane %d</text>`,
			W-pad-60, pad+14*i, color, id)
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" fill="#333">vectors →</text>`, W/2-20, H-8)
	fmt.Fprintf(&b, `<text x="4" y="%d" font-size="11" fill="#333">coverage</text>`, pad-8)
	b.WriteString(`</svg>`)
	return b.String()
}

// RenderHTML writes the self-contained HTML campaign report: inline
// CSS, inline SVG, no external references, no timestamps — the output
// is a pure function of the report.
func RenderHTML(w io.Writer, r *CampaignReport) error {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>SymbFuzz campaign report</title>\n")
	b.WriteString("<style>body{font-family:system-ui,sans-serif;margin:2em;color:#222}" +
		"table{border-collapse:collapse;margin:1em 0}" +
		"th,td{border:1px solid #ccc;padding:4px 10px;text-align:right;font-variant-numeric:tabular-nums}" +
		"th{background:#f0f0f0}td.id,th.id{text-align:left;font-family:monospace}" +
		"h2{margin-top:1.6em}code{background:#f4f4f4;padding:1px 4px}" +
		".chain{background:#eef6ee;border:1px solid #9c9;padding:0.7em 1em}</style></head><body>\n")
	b.WriteString("<h1>SymbFuzz campaign report</h1>\n")
	fmt.Fprintf(&b, "<p>%d events, %d spans, wall %.3fs, %d vectors, %d coverage points, %d bugs.</p>\n",
		r.Summary.Events, r.Spans.Spans, float64(r.Summary.WallNS)/1e9,
		r.Summary.FinalVectors, r.Summary.FinalPoints, r.Summary.Bugs)
	if r.Slicing.SlicedVars > 0 || r.Slicing.InfeasibleTargets > 0 {
		fmt.Fprintf(&b, "<p>Cone-of-influence slicing removed <b>%d</b> solver variables and refuted <b>%d</b> targets statically (no solver dispatch paid).</p>\n",
			r.Slicing.SlicedVars, r.Slicing.InfeasibleTargets)
	}

	b.WriteString("<h2>Coverage over time</h2>\n")
	b.WriteString(coverageSVG(r))
	b.WriteString("\n")

	if r.Chain != nil {
		b.WriteString("<h2>Cross-process causal chain</h2>\n<p class=\"chain\">")
		fmt.Fprintf(&b, "<code>%s</code> → <code>%s</code> (rank %d solve) → cache store → <code>%s</code> (rank %d hit) → <code>%s</code> (+%d coverage)",
			html.EscapeString(r.Chain.Stagnation), html.EscapeString(r.Chain.Solve), r.Chain.OriginRank,
			html.EscapeString(r.Chain.HitSolve), r.Chain.HitRank,
			html.EscapeString(r.Chain.PlanApply), r.Chain.Gained)
		b.WriteString("</p>\n")
	}

	b.WriteString("<h2>Top solves by coverage unlocked</h2>\n")
	b.WriteString("<table><tr><th class=\"id\">span</th><th>lane</th><th>graph</th><th>edge</th><th>outcome</th><th>cache</th><th>vars</th><th>sliced</th><th>clauses</th><th>conflicts</th><th>restarts</th><th>solve ms</th><th>unlocked</th><th>reuses</th></tr>\n")
	for _, sv := range r.TopSolves {
		fmt.Fprintf(&b, "<tr><td class=\"id\">%s</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%.3f</td><td>%d</td><td>%d</td></tr>\n",
			html.EscapeString(sv.Span), sv.Lane, sv.Graph, sv.Edge,
			html.EscapeString(sv.Outcome), html.EscapeString(sv.Cache),
			sv.Vars, sv.SlicedVars, sv.Clauses, sv.Conflicts, sv.Restarts, float64(sv.SolveNS)/1e6, sv.Unlocked, sv.Reuses)
	}
	b.WriteString("</table>\n")

	b.WriteString("<h2>Unsolved targets</h2>\n")
	if len(r.Unsolved) == 0 {
		b.WriteString("<p>Every dispatched target reached sat.</p>\n")
	} else {
		b.WriteString("<table><tr><th>graph</th><th>edge</th><th>attempts</th><th>conflicts</th><th>infeasible</th></tr>\n")
		for _, u := range r.Unsolved {
			fmt.Fprintf(&b, "<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr>\n",
				u.Graph, u.Edge, u.Attempts, u.Conflicts, u.Infeasible)
		}
		b.WriteString("</table>\n")
	}

	b.WriteString("<h2>Per-rank solver time</h2>\n")
	b.WriteString("<table><tr><th>lane</th><th>solves</th><th>sat</th><th>cache hits</th><th>plans</th><th>blast ms</th><th>cdcl ms</th></tr>\n")
	for _, lb := range r.Lanes {
		fmt.Fprintf(&b, "<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%.3f</td><td>%.3f</td></tr>\n",
			lb.Lane, lb.Solves, lb.Sat, lb.CacheHits, lb.Plans,
			float64(lb.BlastNS)/1e6, float64(lb.CDCLNS)/1e6)
	}
	b.WriteString("</table>\n</body></html>\n")

	_, err := io.WriteString(w, b.String())
	return err
}
