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
const (
	EvCampaignStart = "campaign_start"
	EvIntervalStart = "interval_start"
	EvIntervalEnd   = "interval_end"
	EvStagnation    = "stagnation_detected"
	EvSolverDisp    = "solver_dispatch"
	EvPlanApplied   = "plan_applied"
	EvRollback      = "rollback"
	EvCheckpoint    = "checkpoint"
	EvBugFound      = "bug_found"
	EvPruneSkip     = "prune_skip"
	EvCovDropped    = "cov_events_dropped"
	EvSpan          = "span"
	EvCampaignEnd   = "campaign_end"
)

// Span kinds, ordered by causal depth: a campaign owns intervals, an
// interval owns its stimulus batch and any stagnation episode, a
// stagnation episode owns solves, a sat solve owns the plan
// application, and an applied plan owns the coverage it unlocked.
const (
	SpanCampaign  = "campaign"
	SpanInterval  = "interval"
	SpanStimBatch = "stimulus_batch"
	SpanStagnate  = "stagnation"
	SpanSolve     = "solve"
	SpanPlanApply = "plan_apply"
	SpanCovDelta  = "coverage_delta"
	// SpanAlert is a watch-engine alert folded into the trace: a
	// campaign-level health event (stalled lane, dead rank, budget
	// burn) hanging directly off the campaign root. Its ID is the
	// deterministic alert ID, not a w<lane>.i<i>.s<s> child ID.
	SpanAlert = "alert"
)

// knownEvents is the trace schema's closed event-type set.
var knownEvents = map[string]bool{
	EvCampaignStart: true, EvIntervalStart: true, EvIntervalEnd: true,
	EvStagnation: true, EvSolverDisp: true, EvPlanApplied: true,
	EvRollback: true, EvCheckpoint: true, EvBugFound: true,
	EvPruneSkip: true, EvCovDropped: true, EvSpan: true,
	EvCampaignEnd: true,
}

// knownSpanKinds is the span taxonomy's closed kind set.
var knownSpanKinds = map[string]bool{
	SpanCampaign: true, SpanInterval: true, SpanStimBatch: true,
	SpanStagnate: true, SpanSolve: true, SpanPlanApply: true,
	SpanCovDelta: true, SpanAlert: true,
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

	// Graph/Node/Edge locate solver_dispatch / plan_applied /
	// prune_skip events on the clustered CFG (Graph is -1 when unset,
	// so cluster 0 still serializes).
	Graph int `json:"graph,omitempty"`
	Node  int `json:"node,omitempty"`
	Edge  int `json:"edge,omitempty"`

	// Outcome is "sat"/"unsat" for solver_dispatch and
	// "snapshot"/"replay" for rollback.
	Outcome string `json:"outcome,omitempty"`
	// Property names the violated property of a bug_found event.
	Property string `json:"property,omitempty"`
	// Count carries sized payloads: dropped events, checkpoint bytes.
	Count int64 `json:"count,omitempty"`
	// DurNS is the event's wall-clock cost where one is measured
	// (interval_end, rollback, solver_dispatch total).
	DurNS int64 `json:"dur_ns,omitempty"`

	// Per-dispatch solver statistics (solver_dispatch only).
	Conflicts    int64 `json:"conflicts,omitempty"`
	Decisions    int64 `json:"decisions,omitempty"`
	Propagations int64 `json:"propagations,omitempty"`
	Clauses      int   `json:"clauses,omitempty"`
	Vars         int   `json:"vars,omitempty"`
	BlastNS      int64 `json:"blast_ns,omitempty"`
	SolveNS      int64 `json:"cdcl_ns,omitempty"`
	Restarts     int64 `json:"restarts,omitempty"`
	// SlicedVars is the net solver-variable saving of cone-of-influence
	// slicing: per dispatch on solver_dispatch / solve-span events, the
	// campaign total on campaign_end. Infeasible marks a dispatch
	// refuted statically (no solver ran); InfeasibleTargets is its
	// campaign_end total.
	SlicedVars        int64 `json:"sliced_vars,omitempty"`
	Infeasible        bool  `json:"infeasible,omitempty"`
	InfeasibleTargets int64 `json:"infeasible_targets,omitempty"`

	// Causal-span fields (type "span", plus Span on solver_dispatch so
	// the wire cache can attribute remote hits). Span IDs are
	// deterministic, derived from (lane, interval, sequence) — e.g.
	// "w2.i3.s1" — never from wall clock or randomness, so golden-trace
	// tests stay byte-stable.
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind,omitempty"`
	// Cache is "hit" or "miss" on plan_apply/solve spans; on a hit the
	// origin fields link back to the solve span (possibly on another
	// rank) that produced the cached plan.
	Cache        string `json:"cache,omitempty"`
	OriginWorker int    `json:"origin_worker,omitempty"`
	OriginSpan   string `json:"origin_span,omitempty"`
	// Gained is the coverage-tuple delta of a coverage_delta span.
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

// Emit implements Tracer. Every Event field is a plain string, number
// or bool, so encoding cannot fail and an Encode error is the writer's.
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

// ReadEvents parses a JSONL event stream into memory. It checks JSON
// well-formedness and known event types but not stream ordering — use
// ValidateTrace for the full schema check.
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

// TraceSummary is ValidateTrace's digest of a schema-valid trace.
type TraceSummary struct {
	Events       int            `json:"events"`
	ByType       map[string]int `json:"by_type"`
	FinalVectors uint64         `json:"final_vectors"`
	FinalPoints  int            `json:"final_coverage_points"`
	WallNS       int64          `json:"wall_ns"`
	Bugs         int            `json:"bugs"`
	// Workers counts the distinct worker lanes seen (0 for a
	// single-engine trace with no worker-stamped events).
	Workers int `json:"workers,omitempty"`
}

// ValidateTrace checks a JSONL event stream against the trace schema:
// every line is a valid Event of a known type, the stream opens with
// campaign_start and closes with campaign_end, and within each worker
// lane timestamps and vector counts are monotonically non-decreasing.
// (A parallel campaign interleaves lanes in emit order, so cross-lane
// monotonicity cannot hold; lane 0 is the single-engine or
// campaign-level stream.) It returns a summary of the valid trace, or
// the first violation.
func ValidateTrace(r io.Reader) (*TraceSummary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sum := &TraceSummary{ByType: map[string]int{}}
	lastT := map[int]int64{}
	lastV := map[int]uint64{}
	lastType := ""
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
		if ev.Worker < 0 {
			return nil, fmt.Errorf("trace line %d: negative worker id %d", line, ev.Worker)
		}
		if sum.Events == 0 && ev.Type != EvCampaignStart {
			return nil, fmt.Errorf("trace line %d: first event is %q, want %q", line, ev.Type, EvCampaignStart)
		}
		if ev.TNS < lastT[ev.Worker] {
			return nil, fmt.Errorf("trace line %d: worker %d timestamp regressed (%d < %d)", line, ev.Worker, ev.TNS, lastT[ev.Worker])
		}
		if ev.Vectors < lastV[ev.Worker] {
			return nil, fmt.Errorf("trace line %d: worker %d vector count regressed (%d < %d)", line, ev.Worker, ev.Vectors, lastV[ev.Worker])
		}
		lastT[ev.Worker], lastV[ev.Worker], lastType = ev.TNS, ev.Vectors, ev.Type
		sum.Events++
		sum.ByType[ev.Type]++
		sum.FinalVectors = ev.Vectors
		sum.FinalPoints = ev.Points
		sum.WallNS = ev.TNS
		if ev.Type == EvBugFound {
			sum.Bugs++
		}
	}
	for w := range lastT {
		if w > 0 {
			sum.Workers++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if sum.Events == 0 {
		return nil, fmt.Errorf("trace: empty stream")
	}
	if lastType != EvCampaignEnd {
		return nil, fmt.Errorf("trace: last event is %q, want %q", lastType, EvCampaignEnd)
	}
	return sum, nil
}
