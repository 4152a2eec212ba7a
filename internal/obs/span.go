package obs

import (
	"fmt"
	"sort"
)

// spanParents maps each span kind to its legal parent kinds; its keys
// are the span taxonomy's closed kind set. The campaign root has no
// parent; a solve may hang off a stagnation episode (the normal
// Algorithm-1 path) or directly off an interval (defensive: a dispatch
// outside a stagnation window).
var spanParents = map[string][]string{
	SpanCampaign:  nil,
	SpanInterval:  {SpanCampaign},
	SpanStagnate:  {SpanInterval},
	SpanSolve:     {SpanStagnate, SpanInterval},
	SpanPlanApply: {SpanSolve},
	SpanAlert:     {SpanCampaign},
}

// SpanSummary digests a trace's span tree after validation.
type SpanSummary struct {
	Spans  int            `json:"spans"`
	ByKind map[string]int `json:"by_kind"`
	// Roots counts campaign spans (one per lane in a merged trace).
	Roots int `json:"roots"`
	// CrossRankLinks counts solve spans whose cache-hit origin resolved
	// to a solve span on a different lane — the cross-process causal
	// edges of a distributed campaign.
	CrossRankLinks int `json:"cross_rank_links,omitempty"`
	// DanglingOrigins counts cache-hit origin references that did not
	// resolve. Origins are best-effort links: a crashed rank's lane is
	// never delivered, so its stored plans legitimately outlive its
	// spans. Dangling origins are reported, not rejected.
	DanglingOrigins int `json:"dangling_origins,omitempty"`
}

// ValidateSpans checks span referential integrity over a parsed trace:
// span IDs are unique, kinds are known, every non-root parent ID
// exists with a kind the taxonomy allows, and parent chains are
// acyclic (every chain terminates at a campaign root). Cache-hit
// origin references are tallied but allowed to dangle (see
// SpanSummary.DanglingOrigins).
func ValidateSpans(events []Event) (*SpanSummary, error) {
	spans := map[string]*Event{}
	var order []string
	for i := range events {
		ev := &events[i]
		if ev.Type != EvSpan {
			continue
		}
		if ev.Span == "" {
			return nil, fmt.Errorf("span event with empty id (kind %q)", ev.Kind)
		}
		if _, ok := spanParents[ev.Kind]; !ok {
			return nil, fmt.Errorf("span %s: unknown kind %q", ev.Span, ev.Kind)
		}
		if _, dup := spans[ev.Span]; dup {
			return nil, fmt.Errorf("span %s: duplicate id", ev.Span)
		}
		spans[ev.Span] = ev
		order = append(order, ev.Span)
	}

	sum := &SpanSummary{ByKind: map[string]int{}}
	for _, id := range order {
		ev := spans[id]
		sum.Spans++
		sum.ByKind[ev.Kind]++
		if ev.Kind == SpanCampaign {
			sum.Roots++
			if ev.Parent != "" {
				return nil, fmt.Errorf("span %s: campaign root has parent %q", id, ev.Parent)
			}
			continue
		}
		if ev.Parent == "" {
			return nil, fmt.Errorf("span %s (%s): missing parent", id, ev.Kind)
		}
		par, ok := spans[ev.Parent]
		if !ok {
			return nil, fmt.Errorf("span %s (%s): parent %q does not exist", id, ev.Kind, ev.Parent)
		}
		legal := false
		for _, k := range spanParents[ev.Kind] {
			if par.Kind == k {
				legal = true
				break
			}
		}
		if !legal {
			return nil, fmt.Errorf("span %s: kind %s cannot be a child of %s (%s)", id, ev.Kind, par.Kind, ev.Parent)
		}
	}

	// Cycle check: walk every parent chain; a valid chain reaches a
	// campaign root in at most len(spans) steps.
	for _, id := range order {
		seen := map[string]bool{}
		cur := spans[id]
		for cur.Parent != "" {
			if seen[cur.Span] {
				return nil, fmt.Errorf("span %s: parent cycle through %s", id, cur.Span)
			}
			seen[cur.Span] = true
			cur = spans[cur.Parent]
		}
		if cur.Kind != SpanCampaign {
			return nil, fmt.Errorf("span %s: parent chain terminates at %s (%s), not a campaign root", id, cur.Span, cur.Kind)
		}
	}

	// Origin references (cache-hit attribution) are cross-lane and
	// best-effort; count resolutions rather than failing on danglers.
	for _, id := range order {
		ev := spans[id]
		if ev.Kind != SpanSolve || ev.Cache != "hit" || ev.OriginSpan == "" {
			continue
		}
		org, ok := spans[ev.OriginSpan]
		if !ok || org.Kind != SpanSolve {
			sum.DanglingOrigins++
			continue
		}
		if org.Worker != ev.Worker {
			sum.CrossRankLinks++
		}
	}
	return sum, nil
}

// CausalChain names the spans of one reconstructed end-to-end causal
// chain across ranks: a stagnation episode on the origin rank whose
// solve was stored in the shared plan cache, hit by another rank, and
// applied there for a coverage gain.
type CausalChain struct {
	Stagnation string `json:"stagnation"`
	Solve      string `json:"solve"`       // origin-rank solve (cache miss, stored)
	HitSolve   string `json:"hit_solve"`   // other-rank solve resolved from the cache
	PlanApply  string `json:"plan_apply"`  // other-rank plan application
	OriginRank int    `json:"origin_rank"` // lane of the originating solve
	HitRank    int    `json:"hit_rank"`    // lane that consumed the cached plan
	Gained     int    `json:"gained"`      // coverage tuples the applied plan unlocked
}

// FindCrossRankChain reconstructs a complete cross-process causal
// chain stagnation → solve (miss) → cache store → other-rank cache
// hit → plan_apply from a merged trace, if one exists. Candidates are
// scanned in deterministic (span-ID) order so the same trace always
// yields the same chain.
func FindCrossRankChain(events []Event) (*CausalChain, bool) {
	spans := map[string]*Event{}
	apply := map[string]*Event{} // solve span ID → its first plan_apply span
	for i := range events {
		ev := &events[i]
		if ev.Type != EvSpan || ev.Span == "" {
			continue
		}
		spans[ev.Span] = ev
		if ev.Kind == SpanPlanApply && apply[ev.Parent] == nil {
			apply[ev.Parent] = ev
		}
	}
	var hitIDs []string
	for id, ev := range spans {
		if ev.Kind == SpanSolve && ev.Cache == "hit" && ev.OriginSpan != "" {
			hitIDs = append(hitIDs, id)
		}
	}
	sort.Strings(hitIDs)
	for _, id := range hitIDs {
		hit := spans[id]
		org, ok := spans[hit.OriginSpan]
		if !ok || org.Kind != SpanSolve || org.Cache == "hit" || org.Worker == hit.Worker {
			continue
		}
		stag, ok := spans[org.Parent]
		if !ok || stag.Kind != SpanStagnate {
			continue
		}
		pa, ok := apply[id]
		if !ok {
			continue
		}
		return &CausalChain{
			Stagnation: stag.Span,
			Solve:      org.Span,
			HitSolve:   hit.Span,
			PlanApply:  pa.Span,
			OriginRank: org.Worker,
			HitRank:    hit.Worker,
			Gained:     pa.Gained,
		}, true
	}
	return nil, false
}
