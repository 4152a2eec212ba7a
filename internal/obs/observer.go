package obs

import (
	"fmt"
	"sync"
	"time"
)

// SolveStats mirrors one solver dispatch's statistics for telemetry
// (the engine converts from smt.SolveStats so this package stays
// dependency-free).
type SolveStats struct {
	Outcome      string // "sat" or "unsat"
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Clauses      int
	Vars         int
	BlastNS      int64
	SolveNS      int64
	// SlicedVars is the dispatch's net cone-of-influence variable
	// saving; Infeasible marks a statically refuted target (the unsat
	// outcome was decided without running the solver).
	SlicedVars int64
	Infeasible bool
}

// CacheRef describes how a solve was satisfied by the shared plan
// cache. State is "" (no cache in play), "hit" or "miss"; on a hit the
// origin fields link back to the solve span — possibly on another
// rank — that produced the cached plan.
type CacheRef struct {
	State        string
	OriginWorker int
	OriginSpan   string
}

// CurvePoint is one live coverage-curve sample.
type CurvePoint struct {
	Vectors uint64 `json:"vectors"`
	Points  int    `json:"points"`
}

// StatusSnapshot is the live status surface's JSON document: registry
// state plus the coverage curve so far.
type StatusSnapshot struct {
	Schema   string           `json:"schema"`
	UptimeNS int64            `json:"uptime_ns"`
	Metrics  RegistrySnapshot `json:"metrics"`
	Curve    []CurvePoint     `json:"curve,omitempty"`
	// Series is the per-interval time-series ring (oldest-first; at
	// most the ring capacity of the most recent interval samples).
	Series []SeriesPoint `json:"series,omitempty"`
}

// SnapshotSchema versions the status/metrics JSON document. v2 added
// the per-interval time-series ring.
const SnapshotSchema = "symbfuzz-obs/v2"

// Options configures an Observer.
type Options struct {
	// Registry for metrics; nil creates a fresh one.
	Registry *Registry
	// Tracer for the event stream; nil disables tracing (metrics only).
	Tracer Tracer
	// Now returns monotonic nanoseconds since an arbitrary origin;
	// nil uses the real clock. Tests inject a deterministic clock.
	Now func() int64
	// Prefix is prepended to every instrument name (e.g. "w1_" for a
	// parallel worker's lane), keeping per-worker metrics separate in a
	// shared registry. Empty for campaign-level instruments.
	Prefix string
	// Worker stamps every emitted trace event with this 1-based worker
	// lane; 0 (the default) leaves events unstamped so single-engine
	// traces are unchanged.
	Worker int
	// Series is the shared per-interval time-series ring; nil creates a
	// fresh DefaultSeriesCap ring. ForWorker lanes share their base
	// observer's ring.
	Series *Series
}

// Observer is the engine-facing telemetry facade: a metrics registry
// with pre-bound instruments plus an optional event tracer. All
// methods are safe on a nil receiver — a nil *Observer is the zero-cost
// disabled state — and safe for concurrent use.
type Observer struct {
	reg    *Registry
	tracer Tracer
	now    func() int64
	origin int64
	worker int
	series *Series

	mu    sync.Mutex
	curve []CurvePoint

	// Interval and causal-span state (guarded by spanMu; the span IDs
	// are minted only when a tracer is attached). Span IDs derive from
	// (lane, interval, sequence) so identical trajectories yield
	// identical IDs.
	spanMu      sync.Mutex
	intervalIdx int    // current interval index (-1 before the first)
	spanSeq     int    // child-span sequence within the interval
	campStartNS int64  // campaign span open timestamp
	ivSpan      string // current interval's span ID
	ivStartVec  uint64
	stagSpan    string // open stagnation span ID ("" when none)
	stagStartNS int64
	lastSolve   string // most recent solve span ID (plan_apply parent)

	// Pre-bound instruments (resolved once; lock-free afterwards).
	cIntervals *Counter
	hInterval  *Histogram
	cSolves    *Counter
	cSat       *Counter
	cUnsat     *Counter
	hBlast     *Histogram
	hCDCL      *Histogram
	cConflicts *Counter
	cDecisions *Counter
	cProps     *Counter
	cClauses   *Counter
	cVars      *Counter
	cPlans     *Counter
	hRollback  *Histogram
	cRollSnap  *Counter
	cRollRepl  *Counter
	cCkpts     *Counter
	cCkptBytes *Counter
	cCovDrop   *Counter
	cVCDBytes  *Counter
	hVCD       *Histogram
	cStagnant  *Counter
	cPruneSkip *Counter
	cSliceSkip *Counter
	cSliceVars *Counter
	cBugs      *Counter
	cSeqItems  *Counter
	hSeqSolve  *Histogram
	cCacheHit  *Counter
	cCacheMiss *Counter
	gVectors   *Gauge
	gPoints    *Gauge
	gCycles    *Gauge
}

// New builds an Observer. The zero Options value yields a metrics-only
// observer on a fresh registry with the real clock.
func New(opts Options) *Observer {
	reg := opts.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	now := opts.Now
	if now == nil {
		start := time.Now()
		now = func() int64 { return int64(time.Since(start)) }
	}
	series := opts.Series
	if series == nil {
		series = NewSeries(0)
	}
	o := &Observer{reg: reg, tracer: opts.Tracer, now: now, worker: opts.Worker, series: series, intervalIdx: -1}
	o.origin = now()
	p := func(name string) string { return opts.Prefix + name }
	o.cIntervals = reg.Counter(p("fuzz_intervals"))
	o.hInterval = reg.Histogram(p("fuzz_interval_ns"), nil)
	o.cSolves = reg.Counter(p("solver_dispatches"))
	o.cSat = reg.Counter(p("solver_sat"))
	o.cUnsat = reg.Counter(p("solver_unsat"))
	o.hBlast = reg.Histogram(p("solver_blast_ns"), nil)
	o.hCDCL = reg.Histogram(p("solver_cdcl_ns"), nil)
	o.cConflicts = reg.Counter(p("solver_conflicts"))
	o.cDecisions = reg.Counter(p("solver_decisions"))
	o.cProps = reg.Counter(p("solver_propagations"))
	o.cClauses = reg.Counter(p("solver_clauses"))
	o.cVars = reg.Counter(p("solver_vars"))
	o.cPlans = reg.Counter(p("plans_applied"))
	o.hRollback = reg.Histogram(p("rollback_ns"), nil)
	o.cRollSnap = reg.Counter(p("rollbacks_snapshot"))
	o.cRollRepl = reg.Counter(p("rollbacks_replay"))
	o.cCkpts = reg.Counter(p("checkpoints"))
	o.cCkptBytes = reg.Counter(p("checkpoint_bytes"))
	o.cCovDrop = reg.Counter(p("cov_events_dropped"))
	o.cVCDBytes = reg.Counter(p("vcd_bytes"))
	o.hVCD = reg.Histogram(p("vcd_roundtrip_ns"), nil)
	o.cStagnant = reg.Counter(p("stagnation_events"))
	o.cPruneSkip = reg.Counter(p("prune_skips"))
	o.cSliceSkip = reg.Counter(p("slice_skips"))
	o.cSliceVars = reg.Counter(p("sliced_vars"))
	o.cBugs = reg.Counter(p("bugs_found"))
	o.cSeqItems = reg.Counter(p("seq_items"))
	o.hSeqSolve = reg.Histogram(p("seq_solve_ns"), nil)
	o.cCacheHit = reg.Counter(p("plan_cache_hits"))
	o.cCacheMiss = reg.Counter(p("plan_cache_misses"))
	o.gVectors = reg.Gauge(p("vectors_applied"))
	o.gPoints = reg.Gauge(p("coverage_points"))
	o.gCycles = reg.Gauge(p("cycles"))
	return o
}

// ForWorker derives a per-worker observer for a parallel campaign: it
// shares this observer's registry, tracer, clock and time origin, but
// binds instruments under a "w<id>_" prefix and stamps every emitted
// event with the (1-based) worker lane. /status therefore shows
// per-worker coverage alongside the campaign totals, and the merged
// trace keeps each worker's event stream separable. Nil-safe: a nil
// base yields a nil (disabled) observer.
func (o *Observer) ForWorker(id int) *Observer {
	if o == nil {
		return nil
	}
	w := New(Options{
		Registry: o.reg,
		Tracer:   o.tracer,
		Now:      o.now,
		Prefix:   fmt.Sprintf("w%d_", id),
		Worker:   id,
		Series:   o.series,
	})
	w.origin = o.origin // timestamps align with the campaign origin
	return w
}

// Lane returns the observer's 1-based worker lane (0 for the
// single-engine or campaign-level lane). Nil-safe.
func (o *Observer) Lane() int {
	if o == nil {
		return 0
	}
	return o.worker
}

// RootSpan returns the lane's campaign root span ID ("w<lane>").
// Deterministic: derived from the lane alone. Nil-safe.
func (o *Observer) RootSpan() string {
	if o == nil {
		return ""
	}
	return fmt.Sprintf("w%d", o.worker)
}

// Series exposes the shared per-interval time-series ring (nil-safe).
func (o *Observer) Series() *Series {
	if o == nil {
		return nil
	}
	return o.series
}

// spansOn reports whether span bookkeeping is live: spans exist only
// in the trace, so without a tracer the span path costs nothing.
func (o *Observer) spansOn() bool { return o.tracer != nil }

// nextChildID mints the next deterministic child-span ID under the
// current interval: "w<lane>.i<interval>.s<seq>". Callers hold spanMu.
func (o *Observer) nextChildID() string {
	id := fmt.Sprintf("w%d.i%d.s%d", o.worker, o.intervalIdx, o.spanSeq)
	o.spanSeq++
	return id
}

// Registry exposes the observer's registry (nil-safe).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Now returns monotonic nanoseconds since campaign start (0 when nil).
func (o *Observer) Now() int64 {
	if o == nil {
		return 0
	}
	return o.now() - o.origin
}

func (o *Observer) emit(ev *Event) {
	if o.tracer != nil {
		if o.worker != 0 {
			ev.Worker = o.worker
		}
		o.tracer.Emit(ev)
	}
}

// EmitRaw forwards an already-stamped event to the tracer verbatim —
// no timestamping, no worker-lane restamping. The distributed
// coordinator uses it to fold remote workers' lane streams (whose
// events carry the emitting worker's lane and clock) into the
// campaign trace. Nil-safe; a no-op without a tracer.
func (o *Observer) EmitRaw(ev *Event) {
	if o == nil || o.tracer == nil {
		return
	}
	o.tracer.Emit(ev)
}

// Close closes the tracer, flushing any buffered events.
func (o *Observer) Close() error {
	if o == nil || o.tracer == nil {
		return nil
	}
	return o.tracer.Close()
}

// progress updates the live vectors/points gauges.
func (o *Observer) progress(vectors uint64, points int) {
	o.gVectors.Set(int64(vectors))
	o.gPoints.Set(int64(points))
}

// CampaignStart marks the campaign's first event and opens the lane's
// campaign root span.
func (o *Observer) CampaignStart(vectors uint64, points int) {
	if o == nil {
		return
	}
	o.progress(vectors, points)
	if o.spansOn() {
		o.spanMu.Lock()
		o.campStartNS = o.Now()
		o.spanMu.Unlock()
	}
	o.emit(&Event{TNS: o.Now(), Type: EvCampaignStart, Vectors: vectors, Points: points})
}

// CampaignEnd closes the lane's campaign root span and marks the
// campaign's final event; Points must equal the report's FinalPoints
// so offline analyses reconcile with the report. The span record is
// emitted before campaign_end because the trace schema requires
// campaign_end to be the lane's last event. campaign_end carries the
// lane's slicing totals (net variables sliced away, statically refuted
// targets) so offline reports reconcile with Report.SlicedVars /
// Report.InfeasibleTargets without replaying every dispatch, and the
// lane's simulator profile when the engine collected one.
func (o *Observer) CampaignEnd(vectors uint64, points int, sim ...SimEntry) {
	if o == nil {
		return
	}
	o.progress(vectors, points)
	if o.spansOn() {
		o.spanMu.Lock()
		start := o.campStartNS
		o.spanMu.Unlock()
		now := o.Now()
		o.emit(&Event{
			TNS: now, Type: EvSpan, Vectors: vectors, Points: points,
			Span: o.RootSpan(), Kind: SpanCampaign, DurNS: now - start,
		})
	}
	o.emit(&Event{
		TNS: o.Now(), Type: EvCampaignEnd, Vectors: vectors, Points: points,
		SlicedVars:        o.cSliceVars.Value(),
		InfeasibleTargets: o.cSliceSkip.Value(),
		Sim:               sim,
	})
}

// IntervalStart marks the start of one I-cycle fuzz interval: it
// advances the lane's interval index (span IDs and series samples) and
// opens the interval span.
func (o *Observer) IntervalStart(vectors uint64, points int) {
	if o == nil {
		return
	}
	o.spanMu.Lock()
	o.intervalIdx++
	o.spanSeq = 0
	o.ivStartVec = vectors
	if o.spansOn() {
		o.ivSpan = fmt.Sprintf("w%d.i%d", o.worker, o.intervalIdx)
	}
	o.spanMu.Unlock()
}

// IntervalEnd records one completed fuzz interval and its engine-
// measured wall time, closing the interval span (which carries that
// time and the vectors the interval applied) and sampling the
// per-interval time series ring.
func (o *Observer) IntervalEnd(vectors uint64, points int, durNS int64) {
	if o == nil {
		return
	}
	o.cIntervals.Inc()
	o.hInterval.Observe(durNS)
	o.progress(vectors, points)
	o.spanMu.Lock()
	iv, interval, applied := o.ivSpan, o.intervalIdx, vectors-o.ivStartVec
	o.spanMu.Unlock()
	now := o.Now()
	if o.spansOn() {
		// The Event literal escapes into the tracer interface, so it is
		// built only under the guard: the per-interval hot path is
		// pinned zero-alloc without a tracer.
		o.emit(&Event{
			TNS: now, Type: EvSpan, Vectors: vectors, Points: points,
			Span: iv, Parent: o.RootSpan(), Kind: SpanInterval,
			DurNS: durNS, Count: int64(applied),
		})
	}
	p := SeriesPoint{
		TNS: now, Worker: o.worker, Interval: interval,
		Vectors: vectors, Points: points,
		Solves: o.cSolves.Value(), Sat: o.cSat.Value(),
		CacheHits: o.cCacheHit.Value(), CacheMisses: o.cCacheMiss.Value(),
		Plans: o.cPlans.Value(),
	}
	o.series.Add(p)
}

// Stagnation records a Th-interval coverage stall triggering symbolic
// guidance, opening a stagnation span under the current interval that
// GuidanceEnd closes.
func (o *Observer) Stagnation(vectors uint64, points int) {
	if o == nil {
		return
	}
	o.cStagnant.Inc()
	if o.spansOn() {
		o.spanMu.Lock()
		o.stagSpan = o.nextChildID()
		o.stagStartNS = o.Now()
		o.spanMu.Unlock()
	}
}

// GuidanceEnd closes the stagnation span opened by Stagnation once the
// symbolic-guidance episode (solves + plan applications) finishes.
func (o *Observer) GuidanceEnd(vectors uint64, points int) {
	if o == nil || !o.spansOn() {
		return
	}
	o.spanMu.Lock()
	span := o.stagSpan
	iv := o.ivSpan
	start := o.stagStartNS
	o.stagSpan = ""
	o.lastSolve = ""
	o.spanMu.Unlock()
	if span == "" {
		return
	}
	now := o.Now()
	o.emit(&Event{
		TNS: now, Type: EvSpan, Vectors: vectors, Points: points,
		Span: span, Parent: iv, Kind: SpanStagnate, DurNS: now - start,
	})
}

// SolverDispatch records one dependency-equation solve with its
// per-solve SAT statistics and emits the solve span (parented under
// the open stagnation span, falling back to the current interval).
// The returned span ID attributes the solve in the shared plan cache:
// a remote rank's cache hit links back to it. Empty when tracing is
// off. cache.State classifies the solve as a live solve backed by a
// cache store ("miss"), a cache hit ("hit"), or uncached ("").
func (o *Observer) SolverDispatch(graph, edge int, vectors uint64, points int, st SolveStats, cache CacheRef) string {
	if o == nil {
		return ""
	}
	o.cSolves.Inc()
	if st.Outcome == "sat" {
		o.cSat.Inc()
	} else {
		o.cUnsat.Inc()
	}
	o.hBlast.Observe(st.BlastNS)
	o.hCDCL.Observe(st.SolveNS)
	o.cConflicts.Add(st.Conflicts)
	o.cDecisions.Add(st.Decisions)
	o.cProps.Add(st.Propagations)
	o.cClauses.Add(int64(st.Clauses))
	o.cVars.Add(int64(st.Vars))
	switch cache.State {
	case "hit":
		o.cCacheHit.Inc()
	case "miss":
		o.cCacheMiss.Inc()
	}
	span := ""
	if o.spansOn() {
		o.spanMu.Lock()
		span = o.nextChildID()
		parent := o.stagSpan
		if parent == "" {
			parent = o.ivSpan
		}
		o.lastSolve = span
		o.spanMu.Unlock()
		o.emit(&Event{
			TNS: o.Now(), Type: EvSpan, Vectors: vectors, Points: points,
			Span: span, Parent: parent, Kind: SpanSolve,
			Graph: graph, Edge: edge, Outcome: st.Outcome,
			Conflicts: st.Conflicts, Decisions: st.Decisions, Propagations: st.Propagations,
			Restarts: st.Restarts, Clauses: st.Clauses, Vars: st.Vars,
			BlastNS: st.BlastNS, SolveNS: st.SolveNS, DurNS: st.BlastNS + st.SolveNS,
			SlicedVars: st.SlicedVars, Infeasible: st.Infeasible,
			Cache: cache.State, OriginWorker: cache.OriginWorker, OriginSpan: cache.OriginSpan,
		})
	}
	return span
}

// PlanApplied records a solved stimulus plan driven into the DUV that
// exercised its targeted CFG edge, emitting a plan_apply span under the
// solve that produced the plan; the span carries the coverage tuples
// the application unlocked.
func (o *Observer) PlanApplied(graph, edge int, vectors uint64, points, gained int, cache CacheRef) {
	if o == nil {
		return
	}
	o.cPlans.Inc()
	if !o.spansOn() {
		return
	}
	o.spanMu.Lock()
	span, parent := o.nextChildID(), o.lastSolve
	o.spanMu.Unlock()
	if parent == "" {
		return
	}
	o.emit(&Event{
		TNS: o.Now(), Type: EvSpan, Vectors: vectors, Points: points,
		Span: span, Parent: parent, Kind: SpanPlanApply,
		Graph: graph, Edge: edge, Gained: gained,
		Cache: cache.State, OriginWorker: cache.OriginWorker, OriginSpan: cache.OriginSpan,
	})
}

// AlertSpan emits one typed alert span into the trace, parented on the
// lane's campaign root. Alert IDs are deterministic (internal/watch
// derives them from campaign, rule, lane, and interval — never from a
// clock), so golden traces stay stable and a resume's re-emission
// deduplicates by ID in offline analyses. No-op without a tracer.
func (o *Observer) AlertSpan(id, rule, severity, msg string) {
	if o == nil || !o.spansOn() {
		return
	}
	o.emit(&Event{
		TNS: o.Now(), Type: EvSpan, Span: id, Parent: o.RootSpan(),
		Kind: SpanAlert, Rule: rule, Severity: severity, Msg: msg,
	})
}

// Rollback records one checkpoint re-entry; mode is "snapshot" or
// "replay".
func (o *Observer) Rollback(mode string, durNS int64, vectors uint64, points int) {
	if o == nil {
		return
	}
	if mode == "snapshot" {
		o.cRollSnap.Inc()
	} else {
		o.cRollRepl.Inc()
	}
	o.hRollback.Observe(durNS)
	o.emit(&Event{TNS: o.Now(), Type: EvRollback, Vectors: vectors, Points: points, Outcome: mode, DurNS: durNS})
}

// CheckpointTaken records one recorded revisit state and its
// architectural snapshot size in bytes (0 in replay mode).
func (o *Observer) CheckpointTaken(bytes int64, vectors uint64, points int) {
	if o == nil {
		return
	}
	o.cCkpts.Inc()
	o.cCkptBytes.Add(bytes)
	o.emit(&Event{TNS: o.Now(), Type: EvCheckpoint, Vectors: vectors, Points: points, Count: bytes})
}

// CovDropped counts coverage-monitor branch events dropped at the
// event-buffer cap, emitting one trace event per report batch.
func (o *Observer) CovDropped(n int64, vectors uint64, points int) {
	if o == nil || n <= 0 {
		return
	}
	o.cCovDrop.Add(n)
	o.emit(&Event{TNS: o.Now(), Type: EvCovDropped, Vectors: vectors, Points: points, Count: n})
}

// VCDRoundTrip records one interval's VCD write+read round trip.
func (o *Observer) VCDRoundTrip(bytes int64, durNS int64) {
	if o == nil {
		return
	}
	o.cVCDBytes.Add(bytes)
	o.hVCD.Observe(durNS)
}

// PruneSkip records a solver dispatch avoided because static
// reachability facts pruned the target node.
func (o *Observer) PruneSkip(graph, node int, vectors uint64, points int) {
	if o == nil {
		return
	}
	o.cPruneSkip.Inc()
	o.emit(&Event{TNS: o.Now(), Type: EvPruneSkip, Vectors: vectors, Points: points, Graph: graph, Node: node})
}

// SliceSkip records a solver dispatch resolved statically: the target's
// sliced constraint was refuted during cone-of-influence folding, so no
// solver ran (counter only; the dispatch span still carries the unsat
// outcome).
func (o *Observer) SliceSkip() {
	if o == nil {
		return
	}
	o.cSliceSkip.Inc()
}

// SliceVars records solver variables eliminated from one dispatch by
// cone-of-influence slicing.
func (o *Observer) SliceVars(n int) {
	if o == nil || n <= 0 {
		return
	}
	o.cSliceVars.Add(int64(n))
}

// BugFound records one property violation.
func (o *Observer) BugFound(property string, vectors uint64, points int) {
	if o == nil {
		return
	}
	o.cBugs.Inc()
	o.emit(&Event{TNS: o.Now(), Type: EvBugFound, Vectors: vectors, Points: points, Property: property})
}

// SeqItem counts one sequencer-generated stimulus item.
func (o *Observer) SeqItem() {
	if o == nil {
		return
	}
	o.cSeqItems.Inc()
}

// SeqSolve records one constrained-randomization solve's latency.
func (o *Observer) SeqSolve(durNS int64) {
	if o == nil {
		return
	}
	o.hSeqSolve.Observe(durNS)
}

// Cycles updates the live simulated-cycle gauge.
func (o *Observer) Cycles(n uint64) {
	if o == nil {
		return
	}
	o.gCycles.Set(int64(n))
}

// AddCurvePoint appends a live coverage-curve sample and refreshes the
// progress gauges.
func (o *Observer) AddCurvePoint(vectors uint64, points int) {
	if o == nil {
		return
	}
	o.progress(vectors, points)
	o.mu.Lock()
	o.curve = append(o.curve, CurvePoint{Vectors: vectors, Points: points})
	o.mu.Unlock()
}

// Curve returns a copy of the live coverage curve.
func (o *Observer) Curve() []CurvePoint {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]CurvePoint, len(o.curve))
	copy(out, o.curve)
	return out
}

// Snapshot captures the full status document: registry state plus the
// coverage curve (nil-safe; returns an empty document when disabled).
func (o *Observer) Snapshot() StatusSnapshot {
	if o == nil {
		return StatusSnapshot{Schema: SnapshotSchema}
	}
	return StatusSnapshot{
		Schema:   SnapshotSchema,
		UptimeNS: o.Now(),
		Metrics:  o.reg.Snapshot(),
		Curve:    o.Curve(),
		Series:   o.series.Points(),
	}
}
