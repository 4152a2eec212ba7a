// Package core implements the SymbFuzz engine: Algorithm 1 of the
// paper. A UVM environment drives the DUV with constrained-random
// stimulus in intervals of I cycles; a CFG coverage monitor tracks
// control-register interaction tuples; when coverage stagnates for Th
// intervals, the engine identifies the last covered state, rolls back to
// the nearest checkpoint with unexplored out-edges (backtracking the CFG
// when necessary), solves the dependency equations for an unexplored
// transition with the SMT solver, and pins the solved stimulus into the
// UVM sequencer (§4.5–§4.8). Property violations are logged with their
// input-vector counts into the bug report (§4.9).
package core

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/cov"
	"repro/internal/elab"
	"repro/internal/lint"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/smt"
	"repro/internal/uvm"
	"repro/internal/vcd"
)

// Config are the user-facing fuzzing parameters of Algorithm 1.
type Config struct {
	// Interval is I: clock cycles simulated per round before coverage
	// is logged (paper default 300).
	Interval int
	// Threshold is Th: stagnant rounds before symbolic execution.
	Threshold int
	// MaxVectors bounds the total input vectors applied.
	MaxVectors uint64
	// Seed drives all randomness; equal seeds give equal runs.
	Seed int64
	// ResetCycles for the reset sequence (default 2).
	ResetCycles int
	// SimBackend selects the DUV implementation: "" or "interp" for
	// the event-driven four-state interpreter, "compiled" for the
	// closure-compiled backend (internal/simc). The backends are
	// observationally identical, so a campaign's Report does not depend
	// on the choice — only its wall-clock does.
	SimBackend string
	// CFG options for static graph construction.
	CFG cfg.Options
	// UseSnapshots selects fast snapshot rollback; when false the
	// engine resets and replays the recorded input prefix (§4.5's
	// sequence replay; the ablation's slow path).
	UseSnapshots bool
	// DisableSymbolic turns off the guidance stage (pure fuzzing
	// ablation).
	DisableSymbolic bool
	// DumpVCD routes each interval's trace through a VCD write+read
	// round trip, mirroring Algorithm 1's dump-file scan.
	DumpVCD bool
	// CurveStride samples the coverage curve every N vectors
	// (default: Interval).
	CurveStride uint64
	// ContinueAfterCoverage keeps fuzzing until the vector budget even
	// once every static CFG edge is covered (Algorithm 1 stops at full
	// coverage; bug-hunting campaigns keep going).
	ContinueAfterCoverage bool
	// DisablePruning turns off static reachability pruning: without it
	// the engine drops CFG target nodes whose register valuations the
	// lint pass proved unreachable, before any solver dispatch (the
	// ablation keeps them and lets the solver fail on each).
	DisablePruning bool
	// DisableSlicing turns off cone-of-influence slicing: every solver
	// dispatch declares and bit-blasts the full dependency equation
	// instead of the target's folded cone, and statically infeasible
	// targets are handed to the solver instead of being refuted for
	// free (the ablation mirroring DisablePruning).
	DisableSlicing bool
	// Obs receives campaign telemetry: phase metrics, the typed event
	// trace, and live status gauges. nil disables (the fast path —
	// coarse Report.Timings are still collected).
	Obs *obs.Observer
	// SimProfile counts every IR process evaluation (sampling the wall
	// time of every 64th on Obs's clock) and puts the per-process
	// entries on the lane's campaign_end, where obs.BuildCostLedger
	// finds them. Strictly observational: the trajectory and the report
	// are the same either way.
	SimProfile bool

	// Shard restricts solver-guided edge targeting to this worker's
	// statically owned slice of the CFG edge space (parallel campaigns;
	// see coord.go). The zero value disables sharding.
	Shard ShardSpec
	// PlanCache shares solved step plans across concurrent engines.
	// When set, solver seeds become canonical per query (derived from
	// SharedSeed and the PlanKey) so a cache hit returns exactly what a
	// live solve would have produced. nil disables.
	PlanCache PlanCache
	// SharedSeed is the campaign-wide base seed used for canonical
	// cache-query seeding; 0 falls back to Seed. Only consulted when
	// PlanCache is set.
	SharedSeed int64
	// Sync, when set, is called at every interval boundary with the
	// live coverage monitor and the in-progress report (the engine is
	// quiescent for the duration of the call). Returning true stops the
	// campaign. Parallel campaigns use it to publish coverage deltas to
	// the global frontier and poll stop conditions.
	Sync func(*cov.CFGCov, *Report) bool
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 300
	}
	if c.Threshold == 0 {
		c.Threshold = 3
	}
	if c.ResetCycles == 0 {
		c.ResetCycles = 2
	}
	if c.MaxVectors == 0 {
		c.MaxVectors = 100_000
	}
	if c.CurveStride == 0 {
		c.CurveStride = uint64(c.Interval)
	}
	return c
}

// checkpoint is a revisitable CFG node of one cluster graph (§4.5):
// its architectural snapshot in snapshot mode, or the input prefix that
// reaches it in replay mode.
type checkpoint struct {
	graph  int
	node   int
	snap   *sim.Snapshot
	prefix []*uvm.Item
}

// ckTable is one cluster graph's checkpoint store: the checkpoint of
// each node ID (nil until one is recorded), the checkpointed node IDs in
// ascending order, and findTarget's generation-stamped visit marks.
type ckTable struct {
	byNode []*checkpoint
	nodes  []int
	seen   []uint32
	gen    uint32
}

func (t *ckTable) add(ck *checkpoint) {
	t.byNode[ck.node] = ck
	i, _ := slices.BinarySearch(t.nodes, ck.node)
	t.nodes = slices.Insert(t.nodes, i, ck.node)
}

// newSearch starts a walk with every node unvisited.
func (t *ckTable) newSearch() {
	t.gen++
	if t.gen == 0 {
		clear(t.seen)
		t.gen = 1
	}
}

// visit marks node n visited in the current walk, reporting whether it
// was unvisited.
func (t *ckTable) visit(n int) bool {
	if t.seen[n] == t.gen {
		return false
	}
	t.seen[n] = t.gen
	return true
}

// CurvePoint is one sample of the coverage curve (Figure 4a).
type CurvePoint struct {
	Vectors uint64
	Points  int
}

// BugRecord is one detected property violation with the number of input
// vectors applied when it fired (Table 1, column 6).
type BugRecord struct {
	props.Violation
	Vectors uint64
}

// SolveTotals aggregates per-dispatch solver statistics over a campaign
// (Table 3's constraint counts; the §5 solve-latency breakdown).
type SolveTotals struct {
	Dispatches int
	Sat        int
	Unsat      int

	Conflicts    int64
	Decisions    int64
	Propagations int64
	// Clauses / Vars sum the formula size at each dispatch.
	Clauses int64
	Vars    int64

	// BlastNS / CDCLNS split solve wall time between Tseitin
	// bit-blasting and the CDCL search.
	BlastNS int64
	CDCLNS  int64
}

func (t *SolveTotals) add(st smt.SolveStats) {
	t.Dispatches++
	if st.Outcome == smt.Sat {
		t.Sat++
	} else {
		t.Unsat++
	}
	t.Conflicts += st.Conflicts
	t.Decisions += st.Decisions
	t.Propagations += st.Propagations
	t.Clauses += int64(st.Clauses)
	t.Vars += int64(st.Vars)
	t.BlastNS += st.BlastNS
	t.CDCLNS += st.SolveNS
}

// MeanSolveNS is the mean wall time of one solver dispatch.
func (t SolveTotals) MeanSolveNS() int64 {
	if t.Dispatches == 0 {
		return 0
	}
	return (t.BlastNS + t.CDCLNS) / int64(t.Dispatches)
}

// Timings breaks a campaign's wall time down by engine phase — where
// Fig. 4's vectors went — plus the solver aggregate and checkpoint
// memory cost. Collected unconditionally (one clock read per phase
// boundary); the fine-grained histograms live on the optional Observer.
type Timings struct {
	// TotalNS is the whole Run call.
	TotalNS int64
	// FuzzNS is time spent applying constrained-random vectors
	// (Algorithm 1 line 8), including checkpoint capture.
	FuzzNS int64
	// SymbolicNS is time in the guidance stage (lines 14–22):
	// solver dispatches, plan application and backtracking.
	SymbolicNS int64
	// RollbackNS is checkpoint re-entry cost (snapshot restore or
	// reset+replay), a subset of SymbolicNS.
	RollbackNS int64
	// VCDNS is the dump-file write+read round trip (line 9).
	VCDNS int64

	// CheckpointBytes sums the architectural bytes of every snapshot
	// retained by the checkpoint store (0 in replay mode).
	CheckpointBytes int64

	// Solve aggregates the per-dispatch SMT statistics.
	Solve SolveTotals
}

// Report is Algorithm 1's output R plus run statistics.
type Report struct {
	Bugs        []BugRecord
	Curve       []CurvePoint
	FinalPoints int
	Vectors     uint64
	Cycles      uint64

	NodesCovered, NodesTotal int
	EdgesCovered, EdgesTotal int
	TupleCount               int

	SymbolicInvocations int
	SolvedPlans         int
	Rollbacks           int
	Replays             int
	CheckpointsTaken    int
	VCDBytes            int

	// SolveCacheHits / SolveCacheMisses count shared plan-cache
	// consultations (0 unless Config.PlanCache is set). The sum is
	// deterministic for a fixed seed set; the split between hit and
	// miss depends on which worker solved a key first and is the one
	// scheduling artifact the report carries.
	SolveCacheHits   int
	SolveCacheMisses int

	// PrunedTargets counts CFG nodes statically proven unreachable by
	// the lint pass's value-domain facts and excluded from guidance.
	PrunedTargets int
	// PrunedSolves counts solver dispatches avoided because the ranked
	// edge list dropped edges into pruned targets.
	PrunedSolves int

	// SlicedVars sums, over all dispatches, the solver variables the
	// cone-of-influence slice eliminated relative to the full
	// dependency equation (0 with DisableSlicing; omitted from JSON so
	// the ablation report stays byte-identical to the unsliced build).
	SlicedVars int `json:",omitempty"`
	// InfeasibleTargets counts dispatches refuted statically during
	// slicing — the folded constraint collapsed to false or the
	// abstract destination value excluded the target valuation — and
	// recorded as zero-cost unsat dispatches.
	InfeasibleTargets int `json:",omitempty"`

	// CovEventsDropped counts coverage branch events discarded at the
	// monitor's event-buffer cap; nonzero means the interaction-tuple
	// metric undercounts (see cov.EventCap).
	CovEventsDropped uint64

	// Interrupted is true when the campaign was cut short by context
	// cancellation (SIGINT/SIGTERM): the report is a valid partial —
	// coverage, bugs and counters up to the interruption boundary.
	Interrupted bool `json:"interrupted,omitempty"`

	// Timings is the campaign's phase-time and solver-statistics
	// breakdown.
	Timings Timings

	GraphStats cfg.Stats
}

// Engine runs SymbFuzz on one design.
type Engine struct {
	cfgc  Config
	env   *uvm.Env
	part  *cfg.Partition
	cover *cov.CFGCov
	extra []cov.Monitor

	// pruned marks, per cluster graph, the node IDs whose register
	// valuations the lint facts prove unreachable (nil when disabled).
	pruned []map[int]bool

	// cks holds the checkpoints of each cluster graph; ckCount sums them.
	cks     []ckTable
	ckCount int
	// prefix is the input sequence applied since the last reset,
	// recorded only in replay mode (snapshots make it unnecessary).
	prefix    []*uvm.Item
	report    *Report
	rng       *rand.Rand
	vcdBuf    bytes.Buffer
	vcdWriter *vcd.Writer
	// regs is the design's registers in signal order, the solver
	// context of every guided step.
	regs []*elab.Signal
	// queue is findTarget's reusable breadth-first queue.
	queue []int
	// curVals and ctxVals are regValues' reusable register reads.
	curVals, ctxVals map[int]logic.BV

	// obs is the telemetry sink; nil disables (all call sites are
	// nil-safe).
	obs *obs.Observer
	// ctx is the run's cancellation context (set by RunContext for the
	// duration of the run; checked at interval boundaries and between
	// guided steps).
	ctx context.Context
	// shardAll is true when edge sharding is off or this worker's
	// entire in-shard uncovered set is locally drained, unlocking
	// out-of-shard targets; recomputed at each guidance entry.
	shardAll bool
	// lastDrops / dropWarned track the coverage monitor's drop counter
	// between intervals so drops are reported incrementally and the
	// warning fires once.
	lastDrops  uint64
	dropWarned bool
}

// New builds the engine: UVM environment, reset, transition relation,
// static CFG and coverage monitor (Algorithm 1 lines 1–6).
func New(d *elab.Design, properties []*props.Property, c Config) (*Engine, error) {
	c = c.withDefaults()
	// The reachability analysis reads only the design, so it runs beside
	// the environment and CFG build. Every return joins it first: no
	// goroutine outlives New.
	var facts *lint.Facts
	var reach sync.WaitGroup
	defer reach.Wait()
	if !c.DisablePruning {
		reach.Add(1)
		go func() {
			defer reach.Done()
			facts = lint.AnalyzeReachability(d)
		}()
	}
	env, err := uvm.NewEnv(d, uvm.EnvConfig{
		Seed:        c.Seed,
		Properties:  properties,
		ResetCycles: c.ResetCycles,
		SimBackend:  c.SimBackend,
	})
	if err != nil {
		return nil, err
	}
	if err := env.Reset(); err != nil {
		return nil, err
	}
	tr, err := cfg.BuildTransition(d)
	if err != nil {
		return nil, err
	}
	// Pin the reset input deasserted during CFG construction so the
	// graph describes post-reset behaviour. The pins are copied: the
	// caller's map is not written.
	opts := c.CFG
	opts.Pin = map[string]logic.BV{}
	maps.Copy(opts.Pin, c.CFG.Pin)
	if env.ClockInfo.Reset >= 0 {
		name := d.Signals[env.ClockInfo.Reset].Name
		if _, set := opts.Pin[name]; !set {
			v := logic.Ones(1)
			if !env.ClockInfo.ActiveLow {
				v = logic.Zero(1)
			}
			opts.Pin[name] = v
		}
	}
	resetVals := map[int]logic.BV{}
	for _, cr := range cfg.ControlRegisters(d) {
		resetVals[cr.Sig.Index] = env.Sim.Get(cr.Sig.Index)
	}
	part, err := cfg.BuildPartition(d, tr, resetVals, opts)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfgc:     c,
		env:      env,
		part:     part,
		cover:    cov.NewCFGCov(part),
		cks:      make([]ckTable, len(part.Graphs)),
		report:   &Report{GraphStats: part.Stats()},
		rng:      rand.New(rand.NewSource(c.Seed ^ 0x51bb)),
		regs:     d.Registers(),
		obs:      c.Obs,
		shardAll: true,
	}
	for gi, g := range part.Graphs {
		e.cks[gi].byNode = make([]*checkpoint, len(g.Nodes))
		e.cks[gi].seen = make([]uint32, len(g.Nodes))
	}
	env.Agent.Sequencer.Obs = c.Obs
	if c.SimProfile {
		// The annotation clock is injected so the sim package itself
		// never reads wall time (it must stay deterministic/pure).
		env.Sim.EnableProfile(c.Obs.Now, 64)
	}
	if !c.DisablePruning {
		reach.Wait()
		e.markPruned(facts, resetVals)
	}
	mon := cov.Monitor(e.cover)
	if len(e.extra) > 0 {
		mon = cov.NewMulti(append([]cov.Monitor{e.cover}, e.extra...)...)
	}
	cov.Attach(env.Sim, mon)
	// Cycles are counted monotonically: snapshot restores rewind the
	// simulator's own clock but not the amount of simulation performed.
	env.Sim.OnCycle(func(sim.DUV) { e.report.Cycles++ })
	if c.DumpVCD {
		e.vcdWriter = vcd.NewWriter(&e.vcdBuf)
		for _, g := range part.Graphs {
			for _, cr := range g.Regs {
				e.vcdWriter.Declare(cr.Sig.Name, cr.Sig.Width)
			}
		}
		env.Sim.OnCycle(func(s sim.DUV) {
			_ = e.vcdWriter.Sample(s.Cycle(), func(name string) logic.BV {
				idx := s.SignalIndex(name)
				if idx < 0 {
					return logic.X(1)
				}
				return s.Get(idx)
			})
		})
	}
	return e, nil
}

// AttachMonitor adds an extra coverage monitor observing the same run
// (the evaluation harness uses this to apply one reference metric to
// every fuzzer). Must be called before Run.
func (e *Engine) AttachMonitor(m cov.Monitor) {
	e.extra = append(e.extra, m)
	mon := cov.NewMulti(append([]cov.Monitor{e.cover}, e.extra...)...)
	cov.Attach(e.env.Sim, mon)
}

// Env exposes the UVM environment (examples and tests drive it).
func (e *Engine) Env() *uvm.Env { return e.env }

// Graph exposes the clustered static CFG.
func (e *Engine) Graph() *cfg.Partition { return e.part }

// Coverage exposes the live CFG coverage monitor.
func (e *Engine) Coverage() *cov.CFGCov { return e.cover }

// Run executes Algorithm 1's fuzzing loop until the vector budget is
// exhausted or every static CFG edge has been exercised.
func (e *Engine) Run() (*Report, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run with cancellation: when ctx is cancelled the loop
// stops at the next interval boundary (or between guided steps inside
// a symbolic phase), the report is finalized as a valid partial with
// Interrupted=true, and no error is returned — callers flush traces,
// metrics and the report exactly as on a normal completion.
func (e *Engine) RunContext(ctx context.Context) (*Report, error) {
	c := e.cfgc
	e.ctx = ctx
	seq := e.env.Agent.Sequencer
	lastPoints := -1
	stagnant := 0
	bugSeen := 0
	var nextCurve uint64

	runStart := time.Now()
	e.obs.CampaignStart(e.report.Vectors, e.cover.Points())

	for e.report.Vectors < c.MaxVectors &&
		(c.ContinueAfterCoverage || !e.cover.AllEdgesCovered()) {
		if ctx.Err() != nil {
			e.report.Interrupted = true
			break
		}
		// --- one interval of I cycles (Alg. 1 line 8) ---
		e.obs.IntervalStart(e.report.Vectors, e.cover.Points())
		ivStart := time.Now()
		for i := 0; i < c.Interval && e.report.Vectors < c.MaxVectors; i++ {
			it := seq.NextItem()
			if err := e.env.Agent.Driver.Apply(it); err != nil {
				return nil, err
			}
			e.record(it)
			e.report.Vectors++
			e.maybeCheckpoint()
			if e.report.Vectors >= nextCurve {
				e.report.Curve = append(e.report.Curve, CurvePoint{Vectors: e.report.Vectors, Points: e.cover.Points()})
				e.obs.AddCurvePoint(e.report.Vectors, e.cover.Points())
				nextCurve += c.CurveStride
			}
		}
		ivNS := int64(time.Since(ivStart))
		e.report.Timings.FuzzNS += ivNS
		if c.DumpVCD {
			e.scanDump()
		}
		// --- record new bugs with their vector counts (lines 23–25) ---
		vs := e.env.Violations()
		for ; bugSeen < len(vs); bugSeen++ {
			e.report.Bugs = append(e.report.Bugs, BugRecord{Violation: vs[bugSeen], Vectors: e.report.Vectors})
			e.obs.BugFound(vs[bugSeen].Property, e.report.Vectors, e.cover.Points())
		}
		// --- stagnation bookkeeping (lines 13–22) ---
		points := e.cover.Points()
		e.obs.IntervalEnd(e.report.Vectors, points, ivNS)
		e.obs.Cycles(e.report.Cycles)
		e.checkDrops(points)
		if c.Sync != nil && c.Sync(e.cover, e.report) {
			break
		}
		if points > lastPoints {
			lastPoints = points
			stagnant = 0
			continue
		}
		stagnant++
		if c.DisableSymbolic || stagnant < c.Threshold {
			continue
		}
		stagnant = 0
		e.report.SymbolicInvocations++
		e.obs.Stagnation(e.report.Vectors, points)
		symStart := time.Now()
		e.guide()
		e.report.Timings.SymbolicNS += int64(time.Since(symStart))
		e.obs.GuidanceEnd(e.report.Vectors, e.cover.Points())
	}
	// Collect violations raised after the last interval boundary.
	vs := e.env.Violations()
	for ; bugSeen < len(vs); bugSeen++ {
		e.report.Bugs = append(e.report.Bugs, BugRecord{Violation: vs[bugSeen], Vectors: e.report.Vectors})
		e.obs.BugFound(vs[bugSeen].Property, e.report.Vectors, e.cover.Points())
	}
	e.finishReport()
	sim := e.simProfile()
	e.report.Timings.TotalNS = int64(time.Since(runStart))
	e.obs.Cycles(e.report.Cycles)
	// Mirror finishReport's closing curve sample so the live curve's
	// final point matches the report (and the campaign_end event).
	e.obs.AddCurvePoint(e.report.Vectors, e.report.FinalPoints)
	e.obs.CampaignEnd(e.report.Vectors, e.report.FinalPoints, sim...)
	return e.report, nil
}

// checkDrops reports coverage-monitor buffer overflow incrementally:
// each interval's newly dropped branch events feed the
// cov_events_dropped metric, and the first occurrence warns once.
func (e *Engine) checkDrops(points int) {
	d := e.cover.Dropped
	if d <= e.lastDrops {
		return
	}
	e.obs.CovDropped(int64(d-e.lastDrops), e.report.Vectors, points)
	e.lastDrops = d
	if !e.dropWarned {
		e.dropWarned = true
		log.Printf("core: coverage monitor dropped %d branch events at the %d-event buffer cap; interaction tuples undercount this campaign", d, cov.EventCap)
	}
}

// record appends an applied item to the replay prefix; snapshot mode
// re-enters checkpoints without one, so it records nothing.
func (e *Engine) record(it *uvm.Item) {
	if !e.cfgc.UseSnapshots {
		e.prefix = append(e.prefix, it)
	}
}

// maybeCheckpoint records the revisit state the first time each CFG
// node is encountered: §4.5 updates the recorded input sequence on every
// new node, and marks high-fanout nodes as checkpoints. Snapshot mode
// saves the architectural state for O(1) re-entry instead of the input
// prefix.
func (e *Engine) maybeCheckpoint() {
	var snap *sim.Snapshot
	for gi, g := range e.part.Graphs {
		node := e.cover.PrevNode(gi)
		if node < 0 || e.cks[gi].byNode[node] != nil {
			continue
		}
		ck := &checkpoint{graph: gi, node: node}
		var snapBytes int64
		if e.cfgc.UseSnapshots {
			if snap == nil {
				snap = e.env.Sim.Snapshot()
			}
			ck.snap = snap
			snapBytes = snap.Bytes()
		} else {
			ck.prefix = append([]*uvm.Item(nil), e.prefix...)
		}
		e.cks[gi].add(ck)
		e.ckCount++
		e.report.Timings.CheckpointBytes += snapBytes
		e.obs.CheckpointTaken(snapBytes, e.report.Vectors, e.cover.Points())
		if g.Checkpoints[node] {
			e.report.CheckpointsTaken++
		}
	}
}

// markPruned takes the lint reachability analysis (value-domain
// inference refined by SMT-proven dead arms) and marks every CFG node
// holding a register value outside its proven domain. Such nodes come
// from the transition relation's over-approximation — hold variables
// and unconstrained successor models — and no input sequence can reach
// them, so steering the solver toward them is wasted budget. The
// simulator's actual post-reset values are unioned into the domains
// first, and the reset node itself is never pruned.
func (e *Engine) markPruned(facts *lint.Facts, resetVals map[int]logic.BV) {
	for idx, v := range resetVals {
		if cv, ok := canonUint64(v); ok && !facts.Allows(idx, cv) {
			facts.Domains[idx] = append(facts.Domains[idx], cv)
			sort.Slice(facts.Domains[idx], func(i, j int) bool {
				return facts.Domains[idx][i] < facts.Domains[idx][j]
			})
		}
	}
	e.pruned = make([]map[int]bool, len(e.part.Graphs))
	for gi, g := range e.part.Graphs {
		e.pruned[gi] = map[int]bool{}
		for _, n := range g.Nodes {
			if n.ID == 0 {
				continue // reset/root node stays targetable
			}
			for idx, v := range n.Vals {
				cv, ok := canonUint64(v)
				if !ok {
					continue
				}
				if !facts.Allows(idx, cv) {
					e.pruned[gi][n.ID] = true
					e.report.PrunedTargets++
					break
				}
			}
		}
	}
}

// planKey builds the shared-cache key for one dependency-equation
// query: (cluster graph, target node) plus an FNV-1a hash over exactly
// the concrete values SolveStepStats constrains — the in-cluster
// current valuation (canonicalized: X/Z bits read as 0, matching the
// solver's ConstBV encoding) and the pinned out-of-cluster register
// context, both in deterministic signal order.
func (e *Engine) planKey(gi, to int, curVals, context map[int]logic.BV) PlanKey {
	g := e.part.Graphs[gi]
	inCluster := map[int]bool{}
	h := uint64(fnvOffset)
	h = fnvInt(h, gi)
	for _, cr := range g.Regs {
		inCluster[cr.Sig.Index] = true
		h = fnvInt(h, cr.Sig.Index)
		h = hashCanonBV(h, curVals[cr.Sig.Index], cr.Sig.Width)
	}
	h = fnvByte(h, 0xFF) // section separator
	for _, sig := range e.regs {
		if inCluster[sig.Index] {
			continue
		}
		v, ok := context[sig.Index]
		if !ok {
			continue
		}
		h = fnvInt(h, sig.Index)
		h = hashCanonBV(h, v, sig.Width)
	}
	return PlanKey{Graph: gi, To: to, Ctx: h}
}

// hashCanonBV folds a bit-vector's canonical two-state form (X/Z as 0)
// into an FNV-1a hash.
func hashCanonBV(h uint64, v logic.BV, width int) uint64 {
	h = fnvInt(h, width)
	var acc byte
	for i := 0; i < v.Width(); i++ {
		acc <<= 1
		if v.Bit(i) == logic.L1 {
			acc |= 1
		}
		if i%8 == 7 {
			h = fnvByte(h, acc)
			acc = 0
		}
	}
	if v.Width()%8 != 0 {
		h = fnvByte(h, acc)
	}
	return h
}

// cacheSeed derives the canonical solver seed for a shared-cache query
// from the campaign-wide base seed and the key, so every worker solving
// the same key draws the same model. Never 0 (SolveStepStats treats a
// zero seed as "no randomization").
func (e *Engine) cacheSeed(k PlanKey) int64 {
	base := e.cfgc.SharedSeed
	if base == 0 {
		base = e.cfgc.Seed
	}
	h := uint64(fnvOffset)
	h = fnvInt(h, k.Graph)
	h = fnvInt(h, k.To)
	h = fnvInt(h, int(k.Ctx))
	s := base ^ int64(h)
	if s == 0 {
		s = base | 1
	}
	return s
}

// canonUint64 converts a register value to the engine's canonical
// two-state form (X/Z bits read as 0); ok is false above 64 bits.
func canonUint64(v logic.BV) (uint64, bool) {
	if v.Width() > 64 {
		return 0, false
	}
	out := uint64(0)
	for i := 0; i < v.Width(); i++ {
		if v.Bit(i) == logic.L1 {
			out |= uint64(1) << uint(i)
		}
	}
	return out, true
}

// uncoveredFrom is Graph.UncoveredFrom with pruned targets filtered
// out. count attributes the dropped edges to the PrunedSolves stat;
// only the top-level call in rankedEdges counts. Callers that need
// only the number of edges use countUncovered.
func (e *Engine) uncoveredFrom(gi, node int, count bool) []cfg.Edge {
	g := e.part.Graphs[gi]
	edges := g.UncoveredFrom(node, e.cover.EdgesSeen[gi])
	if e.pruned != nil && len(e.pruned[gi]) > 0 {
		kept := edges[:0]
		for _, edge := range edges {
			if e.pruned[gi][edge.To] {
				if count {
					e.report.PrunedSolves++
					e.obs.PruneSkip(gi, edge.To, e.report.Vectors, e.cover.Points())
				}
				continue
			}
			kept = append(kept, edge)
		}
		edges = kept
	}
	// Shard filter: while this worker's in-shard frontier has work,
	// out-of-shard edges are someone else's target (not counted as
	// pruned — they are merely deferred).
	if e.cfgc.Shard.Active() && !e.shardAll {
		kept := edges[:0]
		for _, edge := range edges {
			if e.cfgc.Shard.Owns(gi, edge.ID) {
				kept = append(kept, edge)
			}
		}
		edges = kept
	}
	return edges
}

// countUncovered is len(uncoveredFrom(gi, node, false)) without
// building the slice: the node's out-edges that are uncovered, lead to
// an unpruned target and, while the shard filter is on, are owned by
// this worker's shard.
func (e *Engine) countUncovered(gi, node int) int {
	g := e.part.Graphs[gi]
	seen := e.cover.EdgesSeen[gi]
	var pruned map[int]bool
	if e.pruned != nil {
		pruned = e.pruned[gi]
	}
	sharded := e.cfgc.Shard.Active() && !e.shardAll
	n := 0
	for _, eid := range g.Nodes[node].Out {
		edge := &g.Edges[eid]
		if seen[eid] || pruned[edge.To] || sharded && !e.cfgc.Shard.Owns(gi, edge.ID) {
			continue
		}
		n++
	}
	return n
}

// shardDrained reports whether every un-pruned static edge owned by
// this worker's shard is locally covered. The decision reads only
// local coverage, so it is deterministic regardless of what other
// workers have covered globally.
func (e *Engine) shardDrained() bool {
	s := e.cfgc.Shard
	for gi, g := range e.part.Graphs {
		for _, edge := range g.Edges {
			if !s.Owns(gi, edge.ID) {
				continue
			}
			if e.pruned != nil && e.pruned[gi][edge.To] {
				continue
			}
			if !e.cover.EdgesSeen[gi][edge.ID] {
				return false
			}
		}
	}
	return true
}

// guideSteps bounds the chained guided transitions per symbolic phase,
// and guideTries bounds the alternative edges attempted per step.
const (
	guideSteps = 64
	guideTries = 4
)

// guide is the symbolic stage: pick a cluster graph with unexplored
// out-edges from its current node (or backtrack to the nearest
// revisitable checkpoint that has them, lines 14–18), roll back when
// needed (line 19), solve the dependency equations for an unexplored
// transition (lines 20–21), and keep chaining guided steps while they
// make progress — the paper's inner while-loop that walks the DUV along
// unexplored paths.
func (e *Engine) guide() {
	if e.cfgc.Shard.Active() {
		e.shardAll = e.shardDrained()
	}
	for step := 0; step < guideSteps && e.report.Vectors < e.cfgc.MaxVectors; step++ {
		if e.ctx != nil && e.ctx.Err() != nil {
			return // the run loop records the interruption
		}
		progressed := false
		// Solve in place: clusters whose current node has unexplored
		// out-edges, most-unexplored first.
		for _, cand := range e.inPlaceCandidates() {
			if e.tryEdges(cand[0], cand[1]) {
				progressed = true
				break
			}
		}
		// Backtrack: roll back to a recorded checkpoint with unexplored
		// out-edges (lines 15–19).
		if !progressed {
			for gi := range e.part.Graphs {
				ck := e.findTarget(gi, e.cover.PrevNode(gi))
				if ck == nil {
					continue
				}
				e.rollback(ck)
				if e.tryEdges(ck.graph, ck.node) {
					progressed = true
					break
				}
			}
		}
		if !progressed {
			// Every reachable static edge is exercised (or unsolvable):
			// diversify the interaction tuples by re-entering a recorded
			// checkpoint (§4.5 replays rather than rebooting), or
			// hard-reset when nothing is recorded yet.
			if e.ckCount > 0 {
				e.rollback(e.nthCheckpoint(e.rng.Intn(e.ckCount)))
			} else {
				_ = e.env.Reset()
				e.prefix = e.prefix[:0]
				e.cover.ResetPosition()
				e.resetCheckerHistory()
				e.report.Rollbacks++
			}
			return
		}
	}
}

// nthCheckpoint returns the k-th recorded checkpoint in (cluster graph,
// node ID) order.
func (e *Engine) nthCheckpoint(k int) *checkpoint {
	for gi := range e.cks {
		t := &e.cks[gi]
		if k < len(t.nodes) {
			return t.byNode[t.nodes[k]]
		}
		k -= len(t.nodes)
	}
	return nil
}

// inPlaceCandidates lists (cluster, node) pairs whose current node has
// unexplored out-edges, sorted by unexplored count descending.
func (e *Engine) inPlaceCandidates() [][2]int {
	type cand struct {
		gi, node, score int
	}
	var cands []cand
	for gi := range e.part.Graphs {
		cur := e.cover.PrevNode(gi)
		if cur < 0 {
			continue
		}
		if n := e.countUncovered(gi, cur); n > 0 {
			cands = append(cands, cand{gi, cur, n})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].gi < cands[j].gi
	})
	out := make([][2]int, len(cands))
	for i, c := range cands {
		out[i] = [2]int{c.gi, c.node}
	}
	return out
}

// solveStep dispatches one dependency-equation solve through the
// cone-of-influence sliced path, or the full equation under the
// DisableSlicing ablation (zero SliceInfo).
func (e *Engine) solveStep(g *cfg.Graph, cur, want, context map[int]logic.BV, seed int64) (*cfg.StepPlan, smt.SolveStats, cfg.SliceInfo) {
	if e.cfgc.DisableSlicing {
		plan, st := g.SolveStepStats(cur, want, context, seed)
		return plan, st, cfg.SliceInfo{}
	}
	return g.SolveStepSliced(cur, want, context, seed)
}

// noteSlice folds one dispatch's slicing outcome (net variables saved,
// static refutation) into the report and telemetry counters.
func (e *Engine) noteSlice(saved int, infeasible bool) {
	if saved > 0 {
		e.report.SlicedVars += saved
		e.obs.SliceVars(saved)
	}
	if infeasible {
		e.report.InfeasibleTargets++
		e.obs.SliceSkip()
	}
}

// regValues reads the DUV's registers: cluster graph g's own (the
// solve's current valuation) and every register (the solve's context).
// Both maps are the engine's, refilled on every call.
func (e *Engine) regValues(g *cfg.Graph) (cur, context map[int]logic.BV) {
	if e.ctxVals == nil {
		e.curVals = map[int]logic.BV{}
		e.ctxVals = make(map[int]logic.BV, len(e.regs))
	}
	clear(e.curVals)
	for _, cr := range g.Regs {
		e.curVals[cr.Sig.Index] = e.env.Sim.Get(cr.Sig.Index)
	}
	for _, sig := range e.regs {
		e.ctxVals[sig.Index] = e.env.Sim.Get(sig.Index)
	}
	return e.curVals, e.ctxVals
}

// tryEdges attempts up to guideTries unexplored out-edges of the node,
// solving each with the full concrete register context and applying the
// plan; reports whether any targeted edge got exercised. The register
// values are read on the first try and again only after a plan was
// applied: a failed solve leaves the DUV where it was, but a plan that
// missed its edge has still moved it.
func (e *Engine) tryEdges(gi, node int) bool {
	g := e.part.Graphs[gi]
	edges := e.rankedEdges(gi, node)
	var curVals, context map[int]logic.BV
	for try := 0; try < len(edges) && try < guideTries; try++ {
		edge := edges[try]
		if curVals == nil {
			curVals, context = e.regValues(g)
		}
		var plan *cfg.StepPlan
		var st smt.SolveStats
		var cacheRef obs.CacheRef
		var storeKey PlanKey
		var store PlanCache
		var si cfg.SliceInfo
		if cache := e.cfgc.PlanCache; cache != nil {
			// Shared-cache mode: the solve seed is canonical per query,
			// so any worker producing this key computes the identical
			// plan and statistics, and a hit is indistinguishable from
			// a live solve (modulo saved wall time). The slicing
			// counters ride in the cached entry for the same reason:
			// hit and miss must increment the report identically.
			key := e.planKey(gi, edge.To, curVals, context)
			if c, ok := cache.Lookup(key); ok {
				plan, st = c.Plan, c.Stats
				si = cfg.SliceInfo{FullVars: c.SlicedVars, Infeasible: c.Infeasible}
				e.report.SolveCacheHits++
				cacheRef = obs.CacheRef{State: "hit", OriginWorker: c.OriginWorker, OriginSpan: c.OriginSpan}
			} else {
				plan, st, si = e.solveStep(g, curVals, g.Nodes[edge.To].Vals, context, e.cacheSeed(key))
				e.report.SolveCacheMisses++
				cacheRef = obs.CacheRef{State: "miss"}
				// The cached entry carries the net saving, not the raw
				// split, so a hit replays it via FullVars with ConeVars 0.
				si = cfg.SliceInfo{FullVars: si.FullVars - si.ConeVars, Infeasible: si.Infeasible}
				// Deferred below SolverDispatch so the stored entry can
				// carry the producing solve's span ID.
				storeKey, store = key, cache
			}
		} else {
			plan, st, si = e.solveStep(g, curVals, g.Nodes[edge.To].Vals, context,
				e.cfgc.Seed+int64(e.report.SymbolicInvocations))
			si = cfg.SliceInfo{FullVars: si.FullVars - si.ConeVars, Infeasible: si.Infeasible}
		}
		e.noteSlice(si.FullVars, si.Infeasible)
		e.report.Timings.Solve.add(st)
		spanID := e.obs.SolverDispatch(gi, edge.ID, e.report.Vectors, e.cover.Points(), obs.SolveStats{
			Outcome:      st.Outcome.String(),
			Conflicts:    st.Conflicts,
			Decisions:    st.Decisions,
			Propagations: st.Propagations,
			Restarts:     st.Restarts,
			Clauses:      st.Clauses,
			Vars:         st.Vars,
			BlastNS:      st.BlastNS,
			SolveNS:      st.SolveNS,
			SlicedVars:   int64(si.FullVars),
			Infeasible:   si.Infeasible,
		}, cacheRef)
		if store != nil {
			store.Store(storeKey, CachedPlan{
				Plan: plan, Stats: st,
				SlicedVars: si.FullVars, Infeasible: si.Infeasible,
				OriginWorker: e.obs.Lane(), OriginSpan: spanID,
			})
		}
		if plan == nil {
			continue
		}
		e.report.SolvedPlans++
		pointsBefore := e.cover.Points()
		if e.applyPlan(gi, plan, edge) {
			gained := e.cover.Points() - pointsBefore
			e.obs.PlanApplied(gi, edge.ID, e.report.Vectors, e.cover.Points(), gained, cacheRef)
			return true
		}
		curVals = nil
	}
	return false
}

// findTarget locates a checkpoint of cluster gi with uncovered
// out-edges, walking CFG predecessors breadth-first from cur (from every
// checkpoint of the cluster when cur is unknown).
func (e *Engine) findTarget(gi, cur int) *checkpoint {
	g := e.part.Graphs[gi]
	t := &e.cks[gi]
	t.newSearch()
	queue := e.queue[:0]
	if cur >= 0 {
		queue = append(queue, cur)
		t.visit(cur)
	} else {
		for _, n := range t.nodes {
			queue = append(queue, n)
			t.visit(n)
		}
	}
	var found *checkpoint
	for head := 0; head < len(queue) && found == nil; head++ {
		n := queue[head]
		if ck := t.byNode[n]; ck != nil && e.countUncovered(gi, n) > 0 {
			found = ck
		}
		for _, eid := range g.Nodes[n].In {
			if from := g.Edges[eid].From; t.visit(from) {
				queue = append(queue, from)
			}
		}
	}
	e.queue = queue
	if found != nil {
		return found
	}
	// Fall back to any recorded checkpoint of this cluster with work left.
	for _, n := range t.nodes {
		if e.countUncovered(gi, n) > 0 {
			return t.byNode[n]
		}
	}
	return nil
}

// rollback re-enters a checkpoint: snapshot restore in the fast path, or
// reset plus input-prefix replay (the recorded path of §4.5).
func (e *Engine) rollback(ck *checkpoint) {
	start := time.Now()
	e.report.Rollbacks++
	e.env.Agent.Sequencer.ClearPinned()
	if e.cfgc.UseSnapshots && ck.snap != nil {
		e.env.Sim.Restore(ck.snap)
		e.cover.SyncPosition(e.env.Sim)
		e.resetCheckerHistory()
		d := int64(time.Since(start))
		e.report.Timings.RollbackNS += d
		e.obs.Rollback("snapshot", d, e.report.Vectors, e.cover.Points())
		return
	}
	_ = e.env.Reset()
	e.cover.ResetPosition()
	e.resetCheckerHistory()
	e.report.Replays++
	for _, it := range ck.prefix {
		if err := e.env.Agent.Driver.Apply(it); err != nil {
			return
		}
		e.report.Vectors++ // replay cost is paid in vectors
	}
	e.prefix = append(e.prefix[:0], ck.prefix...)
	e.cover.SyncPosition(e.env.Sim)
	d := int64(time.Since(start))
	e.report.Timings.RollbackNS += d
	e.obs.Rollback("replay", d, e.report.Vectors, e.cover.Points())
}

// applyPlan drives the solved stimulus vector directly, reporting
// whether the targeted edge was exercised.
func (e *Engine) applyPlan(gi int, plan *cfg.StepPlan, edge cfg.Edge) bool {
	it := e.env.Agent.Sequencer.NewItem(func(f uvm.FieldSpec) logic.BV {
		if v, ok := plan.Inputs[f.Name]; ok {
			return v.Resize(f.Width)
		}
		return logic.Zero(f.Width)
	})
	if err := e.env.Agent.Driver.Apply(it); err != nil {
		return false
	}
	e.record(it)
	e.report.Vectors++
	e.maybeCheckpoint()
	return e.cover.EdgeSeen(gi, edge.ID)
}

// rankedEdges orders a cluster node's uncovered out-edges by descending
// unlock count, ties broken by ascending Hamming distance (§4.7). Each
// edge's key is computed once; the stable sort keeps equal keys in
// out-edge order.
func (e *Engine) rankedEdges(gi, node int) []cfg.Edge {
	g := e.part.Graphs[gi]
	uncovered := e.uncoveredFrom(gi, node, true)
	cur := g.Nodes[node]
	type ranked struct {
		edge          cfg.Edge
		unlocks, dist int
	}
	keyed := make([]ranked, len(uncovered))
	for i, edge := range uncovered {
		keyed[i] = ranked{edge, e.countUncovered(gi, edge.To), hamming(cur, g.Nodes[edge.To])}
	}
	slices.SortStableFunc(keyed, func(a, b ranked) int {
		if a.unlocks != b.unlocks {
			return b.unlocks - a.unlocks
		}
		return a.dist - b.dist
	})
	for i, k := range keyed {
		uncovered[i] = k.edge
	}
	return uncovered
}

// hamming counts the register bits that are known in both valuations
// and differ — the 1 bits of their four-state XOR — on packed words.
func hamming(a, b *cfg.Node) int {
	d := 0
	for idx, av := range a.Vals {
		bv, ok := b.Vals[idx]
		if !ok {
			continue
		}
		aa, au := av.Words()
		ba, bu := bv.Words()
		for i := range aa {
			d += bits.OnesCount64((aa[i] ^ ba[i]) &^ (au[i] | bu[i]))
		}
	}
	return d
}

func (e *Engine) resetCheckerHistory() {
	if chk := e.env.Agent.Monitor.Checker; chk != nil {
		chk.ResetHistory()
	}
}

// scanDump parses the interval's VCD trace (Alg. 1 line 9's dump-file
// read) and accounts its size; the parsed trace cross-checks the live
// node bookkeeping.
func (e *Engine) scanDump() {
	if e.vcdWriter == nil {
		return
	}
	start := time.Now()
	_ = e.vcdWriter.Flush()
	n := e.vcdBuf.Len()
	e.report.VCDBytes += n
	if n > 0 {
		_, _ = vcd.Read(bytes.NewReader(e.vcdBuf.Bytes()))
	}
	e.vcdBuf.Reset()
	d := int64(time.Since(start))
	e.report.Timings.VCDNS += d
	e.obs.VCDRoundTrip(int64(n), d)
}

func (e *Engine) finishReport() {
	e.report.CovEventsDropped = e.cover.Dropped
	e.report.FinalPoints = e.cover.Points()
	e.report.NodesCovered, e.report.NodesTotal = e.cover.NodeCoverage()
	e.report.EdgesCovered, e.report.EdgesTotal = e.cover.EdgeCoverage()
	e.report.TupleCount = len(e.cover.Tuples)
	e.report.Curve = append(e.report.Curve, CurvePoint{Vectors: e.report.Vectors, Points: e.cover.Points()})
}

// simProfile builds the simulator profile at campaign end (nil unless
// Config.SimProfile): one entry per IR process carrying its
// deterministic eval count, named directly and placed in its levelized
// cluster via the analysis depgraph (a comb process sits at the settle
// depth of its deepest written signal; sequential processes are level
// -1).
func (e *Engine) simProfile() []obs.SimEntry {
	if !e.cfgc.SimProfile {
		return nil
	}
	d := e.env.Sim.Design()
	g := analysis.BuildDepGraph(d)
	evals, sampledNS, sampled := e.env.Sim.ProfileCounts()
	entries := make([]obs.SimEntry, 0, len(d.Procs))
	for pi, p := range d.Procs {
		entry := obs.SimEntry{Proc: p.Name, Kind: "seq", Level: -1}
		if p.Kind == elab.ProcComb {
			entry.Kind = "comb"
			for _, w := range p.Writes {
				if lv := g.Level[w]; lv > entry.Level {
					entry.Level = lv
				}
			}
		}
		entry.Evals, entry.SampledNS, entry.SampledEvals = evals[pi], sampledNS[pi], sampled[pi]
		entries = append(entries, entry)
	}
	return entries
}

// String renders a one-line summary of a report.
func (r *Report) String() string {
	return fmt.Sprintf("report{vectors=%d points=%d nodes=%d/%d edges=%d/%d bugs=%d symb=%d rollbacks=%d}",
		r.Vectors, r.FinalPoints, r.NodesCovered, r.NodesTotal,
		r.EdgesCovered, r.EdgesTotal, len(r.Bugs), r.SymbolicInvocations, r.Rollbacks)
}
