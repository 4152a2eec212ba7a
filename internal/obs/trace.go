package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event types emitted by the engine. A campaign trace is a JSONL
// stream: one Event per line, timestamps monotonic from campaign start.
// The four steps of Algorithm 1 — a fuzz interval, a stagnation
// episode, a solve and a plan application — are recorded once, as
// spans; the flat types are the lane's framing and the point events no
// span carries.
const (
	EvCampaignStart = "campaign_start"
	EvRollback      = "rollback"
	EvCheckpoint    = "checkpoint"
	EvBugFound      = "bug_found"
	EvPruneSkip     = "prune_skip"
	EvCovDropped    = "cov_events_dropped"
	EvSpan          = "span"
	EvCampaignEnd   = "campaign_end"
)

// Span kinds, ordered by causal depth: a campaign owns intervals, an
// interval owns any stagnation episode, a stagnation episode owns
// solves, and a sat solve owns the plan application (which carries the
// coverage it unlocked).
const (
	SpanCampaign  = "campaign"
	SpanInterval  = "interval"
	SpanStagnate  = "stagnation"
	SpanSolve     = "solve"
	SpanPlanApply = "plan_apply"
	// SpanAlert is a watch-engine alert folded into the trace: a
	// campaign-level health event (stalled lane, dead rank, budget
	// burn) hanging directly off the campaign root. Its ID is the
	// deterministic alert ID, not a w<lane>.i<i>.s<s> child ID.
	SpanAlert = "alert"
)

// knownEvents is the trace schema's closed event-type set.
var knownEvents = map[string]bool{
	EvCampaignStart: true, EvRollback: true, EvCheckpoint: true,
	EvBugFound: true, EvPruneSkip: true, EvCovDropped: true,
	EvSpan: true, EvCampaignEnd: true,
}

// Event is one typed trace record. Every event carries the monotonic
// campaign timestamp, the vectors applied so far, and the covering
// point count; the remaining fields are per-type payloads.
type Event struct {
	TNS     int64  `json:"t_ns"`
	Type    string `json:"type"`
	Vectors uint64 `json:"vectors"`
	Points  int    `json:"coverage_points"`

	// Worker identifies the emitting worker lane in a parallel
	// campaign (1-based; 0/omitted = the single-engine or
	// campaign-level lane, keeping single-worker traces byte-identical
	// to the pre-parallel schema).
	Worker int `json:"worker,omitempty"`

	// Graph/Node/Edge locate solve / plan_apply spans and prune_skip
	// events on the clustered CFG (Graph is -1 when unset, so cluster 0
	// still serializes).
	Graph int `json:"graph,omitempty"`
	Node  int `json:"node,omitempty"`
	Edge  int `json:"edge,omitempty"`

	// Outcome is "sat"/"unsat" for a solve span and
	// "snapshot"/"replay" for rollback.
	Outcome string `json:"outcome,omitempty"`
	// Property names the violated property of a bug_found event.
	Property string `json:"property,omitempty"`
	// Count carries sized payloads: dropped events, checkpoint bytes,
	// the vectors an interval span applied.
	Count int64 `json:"count,omitempty"`
	// DurNS is the event's wall-clock cost where one is measured
	// (interval and solve spans, rollback).
	DurNS int64 `json:"dur_ns,omitempty"`

	// Per-dispatch solver statistics (solve spans only).
	Conflicts    int64 `json:"conflicts,omitempty"`
	Decisions    int64 `json:"decisions,omitempty"`
	Propagations int64 `json:"propagations,omitempty"`
	Clauses      int   `json:"clauses,omitempty"`
	Vars         int   `json:"vars,omitempty"`
	BlastNS      int64 `json:"blast_ns,omitempty"`
	SolveNS      int64 `json:"cdcl_ns,omitempty"`
	Restarts     int64 `json:"restarts,omitempty"`
	// SlicedVars is the net solver-variable saving of cone-of-influence
	// slicing: per dispatch on solve spans, the campaign total on
	// campaign_end. Infeasible marks a dispatch refuted statically (no
	// solver ran); InfeasibleTargets is its campaign_end total.
	SlicedVars        int64 `json:"sliced_vars,omitempty"`
	Infeasible        bool  `json:"infeasible,omitempty"`
	InfeasibleTargets int64 `json:"infeasible_targets,omitempty"`
	// Sim is the lane's per-process simulator profile (campaign_end
	// only, when the engine profiles the simulator).
	Sim []SimEntry `json:"sim,omitempty"`

	// Causal-span fields (type "span"). Span IDs are deterministic,
	// derived from (lane, interval, sequence) — e.g. "w2.i3.s1" — never
	// from wall clock or randomness, so golden-trace tests stay
	// byte-stable.
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind,omitempty"`
	// Cache is "hit" or "miss" on plan_apply/solve spans; on a hit the
	// origin fields link back to the solve span (possibly on another
	// rank) that produced the cached plan.
	Cache        string `json:"cache,omitempty"`
	OriginWorker int    `json:"origin_worker,omitempty"`
	OriginSpan   string `json:"origin_span,omitempty"`
	// Gained is the coverage-tuple delta of a plan_apply span.
	Gained int `json:"gained,omitempty"`

	// Alert-span fields (kind "alert"): the violated watch rule, its
	// severity ("warn"/"crit"), and the operator-facing message.
	Rule     string `json:"rule,omitempty"`
	Severity string `json:"severity,omitempty"`
	Msg      string `json:"msg,omitempty"`
}

// Tracer receives typed events. Implementations must be safe for
// concurrent Emit calls.
type Tracer interface {
	Emit(ev *Event)
	Close() error
}

// JSONLTracer writes one JSON object per event line to a writer.
type JSONLTracer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	c   io.Closer
	err error
}

// NewJSONLTracer wraps a writer; if it is also an io.Closer it is
// closed by Close after the final flush.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	t := &JSONLTracer{w: bufio.NewWriterSize(w, 1<<16)}
	t.enc = json.NewEncoder(t.w)
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// Emit implements Tracer. Every Event field is a plain string, number,
// bool or slice of such structs, so encoding cannot fail and an Encode
// error is the writer's.
func (t *JSONLTracer) Emit(ev *Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = t.enc.Encode(ev)
	}
}

// Close flushes buffered events and closes the underlying writer.
func (t *JSONLTracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.c != nil {
		if err := t.c.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// ReadEvents parses a JSONL event stream into memory: every non-blank
// line must be a valid Event of a known type. It does not check stream
// framing or ordering — ValidateEvents does.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("trace line %d: invalid JSON: %w", line, err)
		}
		if !knownEvents[ev.Type] {
			return nil, fmt.Errorf("trace line %d: unknown event type %q", line, ev.Type)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// TraceSummary is ValidateEvents' digest of a schema-valid trace.
type TraceSummary struct {
	Events       int            `json:"events"`
	ByType       map[string]int `json:"by_type"`
	FinalVectors uint64         `json:"final_vectors"`
	FinalPoints  int            `json:"final_coverage_points"`
	// WallNS is the largest timestamp in the trace (lanes of a merged
	// trace interleave, so the last event need not be the latest).
	WallNS int64 `json:"wall_ns"`
	Bugs   int   `json:"bugs"`
	// Workers counts the distinct worker lanes seen (0 for a
	// single-engine trace with no worker-stamped events).
	Workers int `json:"workers,omitempty"`
}

// ValidateEvents checks a parsed trace against the trace schema: the
// stream opens with campaign_start and closes with campaign_end, and
// within each worker lane timestamps and vector counts are
// monotonically non-decreasing. (A parallel campaign interleaves lanes
// in emit order, so cross-lane monotonicity cannot hold; lane 0 is the
// single-engine or campaign-level stream.) It returns a summary of the
// valid trace, or the first violation.
func ValidateEvents(events []Event) (*TraceSummary, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("trace: empty stream")
	}
	if events[0].Type != EvCampaignStart {
		return nil, fmt.Errorf("trace event 1: first event is %q, want %q", events[0].Type, EvCampaignStart)
	}
	sum := &TraceSummary{ByType: map[string]int{}}
	lastT := map[int]int64{}
	lastV := map[int]uint64{}
	for i := range events {
		ev := &events[i]
		if ev.Worker < 0 {
			return nil, fmt.Errorf("trace event %d: negative worker id %d", i+1, ev.Worker)
		}
		if ev.TNS < lastT[ev.Worker] {
			return nil, fmt.Errorf("trace event %d: worker %d timestamp regressed (%d < %d)", i+1, ev.Worker, ev.TNS, lastT[ev.Worker])
		}
		if ev.Vectors < lastV[ev.Worker] {
			return nil, fmt.Errorf("trace event %d: worker %d vector count regressed (%d < %d)", i+1, ev.Worker, ev.Vectors, lastV[ev.Worker])
		}
		lastT[ev.Worker], lastV[ev.Worker] = ev.TNS, ev.Vectors
		sum.ByType[ev.Type]++
		sum.FinalVectors = ev.Vectors
		sum.FinalPoints = ev.Points
		sum.WallNS = max(sum.WallNS, ev.TNS)
		if ev.Type == EvBugFound {
			sum.Bugs++
		}
	}
	if last := events[len(events)-1].Type; last != EvCampaignEnd {
		return nil, fmt.Errorf("trace: last event is %q, want %q", last, EvCampaignEnd)
	}
	sum.Events = len(events)
	for w := range lastT {
		if w > 0 {
			sum.Workers++
		}
	}
	return sum, nil
}

// ValidateTrace parses a JSONL event stream (ReadEvents) and checks it
// against the trace schema (ValidateEvents).
func ValidateTrace(r io.Reader) (*TraceSummary, error) {
	events, err := ReadEvents(r)
	if err != nil {
		return nil, err
	}
	return ValidateEvents(events)
}
