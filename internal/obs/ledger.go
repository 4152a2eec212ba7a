package obs

import (
	"encoding/json"
	"sort"
)

// LedgerSchema identifies the cost-ledger document.
const LedgerSchema = "symbfuzz-ledger/v1"

// SimEntry attributes simulator effort to one IR process. It rides on
// a lane's campaign_end when the engine profiles the simulator. Evals
// is the deterministic count of body executions; the Sampled* pair is
// the wall-clock annotation (every 64th eval is timed).
type SimEntry struct {
	Proc string `json:"proc"`
	Kind string `json:"kind"` // "comb" | "seq"
	// Level is the levelized settle depth of the process's
	// combinational cone (max over written signals), -1 for
	// sequential processes. Entries sharing a level form the cluster
	// a compiled backend would evaluate together.
	Level int    `json:"level"`
	Evals uint64 `json:"evals"`

	SampledEvals uint64 `json:"sampled_evals,omitempty"` // annotation
	SampledNS    int64  `json:"sampled_ns,omitempty"`    // annotation
}

// SolverEntry attributes solver effort to one CFG target. All unnamed
// fields are deterministic counts: a plan-cache hit's solve span
// replays the origin solve's stats, so Clauses/Conflicts/Restarts/
// SlicedVars do not depend on which rank solved first. The annotation
// fields — the hit/miss split and wall times — do.
type SolverEntry struct {
	Graph int `json:"graph"`
	Edge  int `json:"edge"`

	Dispatches int64 `json:"dispatches"`
	Sat        int64 `json:"sat"`
	Unsat      int64 `json:"unsat"`
	// CacheLookups is hits+misses: the sum is trajectory-determined
	// even though the split depends on which worker solved first.
	CacheLookups int64 `json:"cache_lookups"`
	Clauses      int64 `json:"clauses"`
	Conflicts    int64 `json:"conflicts"`
	Restarts     int64 `json:"restarts"`
	SlicedVars   int64 `json:"sliced_vars"`
	// Infeasible counts lattice-refuted dispatches (zero-cost unsats:
	// no CNF was ever built).
	Infeasible int64 `json:"infeasible,omitempty"`
	// Unlocked is the coverage gained by plans this lane applied for
	// the target — the numerator of coverage-per-cost.
	Unlocked int64 `json:"unlocked"`

	CacheHits   int64 `json:"cache_hits,omitempty"`   // annotation
	CacheMisses int64 `json:"cache_misses,omitempty"` // annotation
	BlastNS     int64 `json:"blast_ns,omitempty"`     // annotation
	SolveNS     int64 `json:"cdcl_ns,omitempty"`      // annotation
}

// CostPoint is one sample of the cumulative coverage-unlocked-per-cost
// curve, taken at each solve span.
type CostPoint struct {
	Dispatch  int64 `json:"n"`
	Clauses   int64 `json:"clauses"`
	Conflicts int64 `json:"conflicts"`
	Unlocked  int64 `json:"unlocked"`
}

// RankLedger is one worker rank's ledger.
type RankLedger struct {
	Rank   int           `json:"rank"`
	Sim    []SimEntry    `json:"sim,omitempty"`
	Solver []SolverEntry `json:"solver,omitempty"`
	Curve  []CostPoint   `json:"curve,omitempty"`
}

// LedgerTotals is the campaign-wide rollup over all rank ledgers.
type LedgerTotals struct {
	Evals        uint64 `json:"evals"`
	Dispatches   int64  `json:"dispatches"`
	Sat          int64  `json:"sat"`
	Unsat        int64  `json:"unsat"`
	CacheLookups int64  `json:"cache_lookups"`
	Clauses      int64  `json:"clauses"`
	Conflicts    int64  `json:"conflicts"`
	Restarts     int64  `json:"restarts"`
	SlicedVars   int64  `json:"sliced_vars"`
	Infeasible   int64  `json:"infeasible"`
	Unlocked     int64  `json:"unlocked"`
}

// CostLedger attributes a campaign's simulator and solver effort to
// design constructs: IR processes and (graph, edge) CFG targets. It is
// a pure function of the trace (BuildCampaignReport), so the canonical
// ledger of a fixed seed is byte-identical across runs, worker counts
// and the in-process vs. distributed orchestrators.
type CostLedger struct {
	Schema  string       `json:"schema"`
	Workers int          `json:"workers"`
	Ranks   []RankLedger `json:"ranks"`
	Totals  LedgerTotals `json:"totals"`
}

// laneFold is one trace lane's solver ledger, folded in emit order.
type laneFold struct {
	led     RankLedger
	targets map[[2]int]*SolverEntry
	cum     CostPoint
	closed  bool // the lane emitted campaign_end
}

// foldLanes folds every lane of a trace into its solver ledger, keyed
// by worker ID. Per lane, in emit order:
//   - every solve span counts against its (graph, edge) and adds one
//     cumulative curve point; a cache hit counts the origin solve's
//     replayed clauses and conflicts but none of its wall time;
//   - every plan_apply span credits its gain to the applying lane's
//     (graph, edge) — which rank solved a shared key first is a
//     scheduling artifact — and to the last curve point;
//   - the lane's campaign_end supplies the simulator entries.
//
// Each lane's Solver rows come out ordered by (graph, edge).
func foldLanes(events []Event) map[int]*laneFold {
	lanes := map[int]*laneFold{}
	for i := range events {
		ev := &events[i]
		ln := lanes[ev.Worker]
		if ln == nil {
			ln = &laneFold{targets: map[[2]int]*SolverEntry{}}
			lanes[ev.Worker] = ln
		}
		target := func() *SolverEntry {
			k := [2]int{ev.Graph, ev.Edge}
			t := ln.targets[k]
			if t == nil {
				t = &SolverEntry{Graph: ev.Graph, Edge: ev.Edge}
				ln.targets[k] = t
			}
			return t
		}
		switch {
		case ev.Type == EvCampaignEnd:
			ln.led.Sim = ev.Sim
			ln.closed = true
		case ev.Type == EvSpan && ev.Kind == SpanSolve:
			t := target()
			t.Dispatches++
			if ev.Outcome == "sat" {
				t.Sat++
			} else {
				t.Unsat++
			}
			t.Clauses += int64(ev.Clauses)
			t.Conflicts += ev.Conflicts
			t.Restarts += ev.Restarts
			t.SlicedVars += ev.SlicedVars
			if ev.Infeasible {
				t.Infeasible++
			}
			switch ev.Cache {
			case "hit":
				t.CacheLookups++
				t.CacheHits++
			case "miss":
				t.CacheLookups++
				t.CacheMisses++
			}
			if ev.Cache != "hit" {
				t.BlastNS += ev.BlastNS
				t.SolveNS += ev.SolveNS
			}
			ln.cum.Dispatch++
			ln.cum.Clauses += int64(ev.Clauses)
			ln.cum.Conflicts += ev.Conflicts
			ln.led.Curve = append(ln.led.Curve, ln.cum)
		case ev.Type == EvSpan && ev.Kind == SpanPlanApply && ev.Gained > 0:
			target().Unlocked += int64(ev.Gained)
			ln.cum.Unlocked += int64(ev.Gained)
			if n := len(ln.led.Curve); n > 0 {
				ln.led.Curve[n-1].Unlocked = ln.cum.Unlocked
			}
		}
	}
	for _, ln := range lanes {
		for _, t := range ln.targets {
			ln.led.Solver = append(ln.led.Solver, *t)
		}
		sortTargets(ln.led.Solver)
	}
	return lanes
}

// newCostLedger picks the ranks out of the folded lanes. A rank is a
// lane that closed with campaign_end: lane 0 for a single-engine trace,
// otherwise each worker lane w as rank w-1 (the campaign-level lane 0
// runs no engine).
func newCostLedger(lanes map[int]*laneFold) *CostLedger {
	ids := make([]int, 0, len(lanes))
	for w, ln := range lanes {
		if ln.closed && w > 0 {
			ids = append(ids, w)
		}
	}
	if len(ids) == 0 {
		ids = append(ids, 0)
	}
	sort.Ints(ids)
	l := &CostLedger{Schema: LedgerSchema}
	for _, w := range ids {
		led := lanes[w].led
		led.Rank = max(w-1, 0)
		l.add(led)
	}
	return l
}

// sortTargets orders solver rows by (graph, edge).
func sortTargets(rows []SolverEntry) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Graph != rows[j].Graph {
			return rows[i].Graph < rows[j].Graph
		}
		return rows[i].Edge < rows[j].Edge
	})
}

// mergeTargets folds per-rank solver rows into campaign-wide
// per-target rows, ordered by (graph, edge).
func mergeTargets(ranks []RankLedger) []SolverEntry {
	byKey := map[[2]int]int{} // (graph, edge) → index in out
	var out []SolverEntry
	for _, r := range ranks {
		for _, s := range r.Solver {
			k := [2]int{s.Graph, s.Edge}
			i, ok := byKey[k]
			if !ok {
				i = len(out)
				byKey[k] = i
				out = append(out, SolverEntry{Graph: s.Graph, Edge: s.Edge})
			}
			e := &out[i]
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
	sortTargets(out)
	return out
}

// Targets returns the ledger's campaign-wide per-target solver rows:
// every rank's rows for one (graph, edge) summed, ordered by (graph,
// edge).
func (l *CostLedger) Targets() []SolverEntry { return mergeTargets(l.Ranks) }

// add appends one rank ledger and folds it into the totals.
func (l *CostLedger) add(r RankLedger) {
	l.Ranks = append(l.Ranks, r)
	l.Workers = len(l.Ranks)
	for _, s := range r.Sim {
		l.Totals.Evals += s.Evals
	}
	for _, s := range r.Solver {
		t := &l.Totals
		t.Dispatches += s.Dispatches
		t.Sat += s.Sat
		t.Unsat += s.Unsat
		t.CacheLookups += s.CacheLookups
		t.Clauses += s.Clauses
		t.Conflicts += s.Conflicts
		t.Restarts += s.Restarts
		t.SlicedVars += s.SlicedVars
		t.Infeasible += s.Infeasible
		t.Unlocked += s.Unlocked
	}
}

// Canonical returns a copy of the ledger with every wall-clock
// annotation stripped: sampled eval times, per-target blast and CDCL
// time, and the cache hit/miss split. For a fixed seed the canonical
// ledger is byte-identical across runs, worker counts, and the
// in-process vs. distributed orchestrators.
func (l *CostLedger) Canonical() *CostLedger {
	out := &CostLedger{Schema: l.Schema, Workers: l.Workers, Totals: l.Totals}
	out.Ranks = make([]RankLedger, len(l.Ranks))
	for i, r := range l.Ranks {
		cr := RankLedger{Rank: r.Rank, Curve: r.Curve}
		cr.Sim = make([]SimEntry, len(r.Sim))
		for j, s := range r.Sim {
			s.SampledEvals, s.SampledNS = 0, 0
			cr.Sim[j] = s
		}
		cr.Solver = make([]SolverEntry, len(r.Solver))
		for j, s := range r.Solver {
			s.CacheHits, s.CacheMisses, s.BlastNS, s.SolveNS = 0, 0, 0, 0
			cr.Solver[j] = s
		}
		out.Ranks[i] = cr
	}
	return out
}

// MarshalIndent renders the ledger as indented JSON with a trailing
// newline.
func (l *CostLedger) MarshalIndent() ([]byte, error) {
	out, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
