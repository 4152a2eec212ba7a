// Package symbfuzz is a from-scratch Go implementation of SymbFuzz
// (Miftah et al., MICRO 2025): symbolic-execution-guided hardware
// fuzzing on a UVM-style testbench.
//
// The package is the public facade over the implementation packages:
//
//   - an HDL front-end for a synthesizable SystemVerilog subset
//     (Parse / Elaborate),
//   - a four-state event-driven RTL simulator (NewSimulator),
//   - a QF_BV SMT solver built on a CDCL SAT core (used internally for
//     dependency-equation solving and constrained randomization),
//   - control-flow-graph extraction with control-register
//     identification and checkpoint marking (BuildGraph),
//   - an SVA-style property engine (Sig, Eq, Implies, Past, ...),
//   - the SymbFuzz engine itself (NewEngine / Fuzz), and
//   - the comparison fuzzers and evaluation harness of the paper's §5
//     (RunRFuzz..., Eval...).
//
// Quick start:
//
//	bench := symbfuzz.OpenTitanMini(nil) // the buggy SoC
//	report, err := symbfuzz.Fuzz(bench, symbfuzz.Config{MaxVectors: 50000})
//	for _, bug := range report.Bugs { fmt.Println(bug.Property, bug.CWE) }
package symbfuzz

import (
	"context"
	"fmt"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/eval"
	"repro/internal/fuzzers"
	"repro/internal/hdl"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/prof"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/smt"
	"repro/internal/uvm"
)

// ---- core value types ----

// BV is a four-state (0/1/X/Z) bit-vector, the value domain of the
// simulator and property engine.
type BV = logic.BV

// Re-exported bit-vector constructors.
var (
	// U builds a fully defined width-bit vector from a uint64.
	U = logic.FromUint64
	// X returns an all-unknown vector.
	X = logic.X
	// Zero returns an all-zero vector.
	Zero = logic.Zero
	// Ones returns an all-one vector.
	Ones = logic.Ones
	// Bits parses an MSB-first pattern like "10xz".
	Bits = logic.FromString
)

// ---- HDL front-end and simulation ----

// Source is a parsed HDL compilation unit.
type Source = hdl.Source

// Design is an elaborated, flattened, executable design.
type Design = elab.Design

// Simulator is the four-state event-driven RTL simulator.
type Simulator = sim.Simulator

// ResetInfo describes a design's detected clock/reset tree.
type ResetInfo = sim.ResetInfo

// Parse parses HDL source text (the SystemVerilog subset).
func Parse(src string) (*Source, error) { return hdl.Parse(src) }

// Elaborate flattens the module hierarchy rooted at top into an
// executable design. overrides optionally sets top-level parameters.
func Elaborate(src *Source, top string, overrides map[string]uint64) (*Design, error) {
	return elab.Elaborate(src, top, overrides)
}

// ParseAndElaborate is the one-call front door from source to design.
func ParseAndElaborate(src, top string) (*Design, error) {
	ast, err := hdl.Parse(src)
	if err != nil {
		return nil, err
	}
	return elab.Elaborate(ast, top, nil)
}

// NewSimulator creates a simulator over a design; registers start X and
// combinational logic is settled.
func NewSimulator(d *Design) (*Simulator, error) { return sim.New(d) }

// DetectClockReset finds the design's clock and reset distribution
// roots (§4.3's reset tree extraction).
func DetectClockReset(d *Design) ResetInfo { return sim.DetectClockReset(d) }

// ---- properties (§4.9) ----

// Property is a named security property checked every cycle.
type Property = props.Property

// Violation records a property violation (name, CWE, cycle).
type Violation = props.Violation

// PropExpr is a property expression node.
type PropExpr = props.Expr

// ParsePropertyExpr parses an SVA-flavoured property expression string,
// e.g. "rx_parity_err |-> parity_enable" or "$past(state_q) == 3'd3".
func ParsePropertyExpr(src string) (PropExpr, error) { return props.ParseExpr(src) }

// ParseProperty builds a named property from expression strings;
// disableIff may be empty.
func ParseProperty(name, expr, disableIff string) (*Property, error) {
	return props.ParseProperty(name, expr, disableIff)
}

// Property-expression constructors, mirroring SVA operators.
var (
	// Sig references a signal by hierarchical name.
	Sig = props.Sig
	// PU builds a width-bit unsigned property constant.
	PU = props.U
	// PEq / PNe / PLt / PLe compare expressions.
	PEq = props.Eq
	PNe = props.Ne
	PLt = props.Lt
	PLe = props.Le
	// PAnd / POr / PNot are logical connectives.
	PAnd = props.And
	POr  = props.Or
	PNot = props.Not
	// Implies is the overlapping implication |->.
	Implies = props.Implies
	// Past is $past(signal, n).
	Past = props.Past
	// Stable is $stable(signal).
	Stable = props.Stable
	// IsUnknown is $isunknown(e).
	IsUnknown = props.IsUnknown
	// IsInside is $isinside.
	IsInside = props.IsInside
	// PSlice / PIndex select bits.
	PSlice = props.Slice
	PIndex = props.Index
)

// ---- CFG analysis (§4.4–§4.6) ----

// Graph is the clustered control-flow graph over control-register
// valuations (one graph per interacting register group).
type Graph = cfg.Partition

// GraphOptions bounds CFG construction.
type GraphOptions = cfg.Options

// GraphStats summarizes a CFG (Table 3 columns).
type GraphStats = cfg.Stats

// BuildGraph elaborates the transition relation and constructs the
// static CFG from the given reset valuation (signal index -> value).
func BuildGraph(d *Design, reset map[int]BV, opts GraphOptions) (*Graph, error) {
	tr, err := cfg.BuildTransition(d)
	if err != nil {
		return nil, err
	}
	return cfg.BuildPartition(d, tr, reset, opts)
}

// ControlRegisterNames lists the identified control registers (§4.4.1).
func ControlRegisterNames(d *Design) []string {
	var out []string
	for _, cr := range cfg.ControlRegisters(d) {
		out = append(out, cr.Sig.Name)
	}
	return out
}

// ---- the SymbFuzz engine (Algorithm 1) ----

// Config carries Algorithm 1's parameters (interval I, threshold Th,
// budget, seed, checkpoint mode).
type Config = core.Config

// Report is a fuzzing campaign's outcome: bugs with vector counts,
// coverage curve, CFG coverage, and guidance statistics.
type Report = core.Report

// BugRecord is one detected violation with its input-vector count.
type BugRecord = core.BugRecord

// Engine is the SymbFuzz fuzzing engine.
type Engine = core.Engine

// NewEngine builds an engine for a design and property set.
func NewEngine(d *Design, properties []*Property, c Config) (*Engine, error) {
	return core.New(d, properties, c)
}

// Benchmark is a packaged design-plus-properties evaluation target.
type Benchmark = designs.Benchmark

// Fuzz runs SymbFuzz on a benchmark with the given configuration.
func Fuzz(b *Benchmark, c Config) (*Report, error) {
	return FuzzContext(context.Background(), b, c)
}

// FuzzContext is Fuzz with cancellation: when ctx is cancelled the
// engine stops at the next cycle and returns a valid partial report
// with Interrupted set — the graceful-shutdown path of the CLI's
// SIGINT/SIGTERM handling.
func FuzzContext(ctx context.Context, b *Benchmark, c Config) (*Report, error) {
	d, err := b.Elaborate()
	if err != nil {
		return nil, err
	}
	eng, err := core.New(d, b.Properties, c)
	if err != nil {
		return nil, err
	}
	return eng.RunContext(ctx)
}

// ---- parallel campaigns (internal/par) ----

// ParallelConfig parameterizes a multi-worker campaign: the embedded
// Config is the per-worker Algorithm-1 setup, Workers the fan-out.
type ParallelConfig = par.Config

// ParallelReport is a parallel campaign's outcome: the deterministic
// rank-merged Report plus per-worker reports and campaign-level stats.
type ParallelReport = par.Report

// FuzzParallel runs Workers concurrent SymbFuzz engines on a benchmark
// against a shared coverage frontier with statically sharded targets
// and a cross-worker solved-plan cache. The merged report is
// deterministic for a fixed seed set regardless of scheduling.
func FuzzParallel(b *Benchmark, c ParallelConfig) (*ParallelReport, error) {
	return par.Run(b.Elaborate, b.Properties, c)
}

// FuzzParallelContext is FuzzParallel with cancellation: every worker
// stops at its next interval boundary and the merged report carries
// Interrupted.
func FuzzParallelContext(ctx context.Context, b *Benchmark, c ParallelConfig) (*ParallelReport, error) {
	return par.RunContext(ctx, b.Elaborate, b.Properties, c)
}

// ---- benchmark designs (§5 evaluation targets) ----

// Bug describes a planted vulnerability (Table 1 metadata).
type Bug = designs.Bug

// ALU returns the paper's Listing 1 toy design.
func ALU() *Benchmark { return designs.ALU() }

// OpenTitanMini returns the SoC benchmark; nil enables all 14 bugs,
// an empty map builds the fixed SoC, and a partial map selects IPs.
func OpenTitanMini(buggy map[string]bool) *Benchmark { return designs.OpenTitanMini(buggy) }

// IPBenchmarks returns each SoC IP as a standalone benchmark.
func IPBenchmarks(buggy bool) []*Benchmark {
	var out []*Benchmark
	for _, ip := range designs.AllIPs() {
		out = append(out, designs.IPBenchmark(ip, buggy))
	}
	return out
}

// CVA6Mini, RocketMini and Mor1kxMini are the §5.4 processor cores.
func CVA6Mini(buggy bool) *Benchmark   { return designs.CVA6Mini(buggy) }
func RocketMini(buggy bool) *Benchmark { return designs.RocketMini(buggy) }
func Mor1kxMini(buggy bool) *Benchmark { return designs.Mor1kxMini(buggy) }

// PlantedBugs lists the fourteen SoC bugs of Table 1.
func PlantedBugs() []Bug { return designs.AllBugs() }

// ---- comparison fuzzers (§5.2–5.3) ----

// FuzzerResult is a baseline fuzzer's campaign outcome.
type FuzzerResult = fuzzers.Result

// BaselineConfig parameterizes a baseline run.
type BaselineConfig = fuzzers.Config

// RunBaseline runs one of "rfuzz", "difuzzrtl", "hwfp" or "uvm-random"
// on a benchmark; the reference coverage graph is built automatically.
func RunBaseline(name string, b *Benchmark, c BaselineConfig) (*FuzzerResult, error) {
	d, err := b.Elaborate()
	if err != nil {
		return nil, err
	}
	if c.Graph == nil {
		s, err := sim.New(d)
		if err != nil {
			return nil, err
		}
		info := sim.DetectClockReset(d)
		if err := s.ApplyReset(info, 2); err != nil {
			return nil, err
		}
		reset := map[int]BV{}
		for _, cr := range cfg.ControlRegisters(d) {
			reset[cr.Sig.Index] = s.Get(cr.Sig.Index)
		}
		pin := map[string]BV{}
		if info.Reset >= 0 {
			v := logic.Ones(1)
			if !info.ActiveLow {
				v = logic.Zero(1)
			}
			pin[d.Signals[info.Reset].Name] = v
		}
		g, err := BuildGraph(d, reset, GraphOptions{Pin: pin, MaxNodes: 256, MaxSuccessors: 8})
		if err != nil {
			return nil, err
		}
		c.Graph = g
		// A fresh design: the probe simulation above must not leak.
		d, err = b.Elaborate()
		if err != nil {
			return nil, err
		}
	}
	if c.Properties == nil {
		c.Properties = b.Properties
	}
	var fz fuzzers.Fuzzer
	switch name {
	case "rfuzz":
		fz = fuzzers.NewRFuzz(d, c)
	case "difuzzrtl":
		fz = fuzzers.NewDifuzzRTL(d, c)
	case "hwfp":
		fz = fuzzers.NewHWFP(d, c)
	case "uvm-random":
		fz = fuzzers.NewUVMRandom(d, c)
	default:
		return nil, fmt.Errorf("symbfuzz: unknown baseline %q", name)
	}
	return fz.Run()
}

// ---- evaluation harness (tables and figures of §5) ----

// EvalConfig scales the experiment harness.
type EvalConfig = eval.Config

// Experiment result types.
type (
	Table1Row    = eval.Table1Row
	Table2Row    = eval.Table2Row
	Table3Row    = eval.Table3Row
	Figure4      = eval.Figure4
	Section54Row = eval.Section54Row
	Scalability  = eval.Scalability
)

// Experiment runners; see EXPERIMENTS.md for paper-vs-measured values.
var (
	EvalTable1      = eval.RunTable1
	EvalTable2      = eval.RunTable2
	EvalTable3      = eval.RunTable3
	EvalFigure4     = eval.RunFigure4
	EvalSection54   = eval.RunSection54
	EvalScalability = eval.RunScalability
)

// ---- observability (campaign telemetry) ----

// Observer is the campaign telemetry facade: a metrics registry of
// named counters/gauges/duration histograms plus an optional typed
// event tracer. Pass one via Config.Obs; a nil Observer disables
// telemetry at negligible cost.
type Observer = obs.Observer

// ObserverOptions configures NewObserver.
type ObserverOptions = obs.Options

// TraceEvent is one typed JSONL trace record.
type TraceEvent = obs.Event

// TraceSummary digests a validated trace.
type TraceSummary = obs.TraceSummary

// StatusSnapshot is the live status endpoint's JSON document.
type StatusSnapshot = obs.StatusSnapshot

// SpanSummary digests a trace's causal-span layer (counts by kind,
// campaign roots, cross-rank cache links).
type SpanSummary = obs.SpanSummary

// CausalChain is a reconstructed cross-process plan-reuse chain:
// stagnation -> solve -> remote cache -> other-rank hit -> plan_apply,
// with the coverage the applied plan unlocked.
type CausalChain = obs.CausalChain

// CacheRef attributes a solve to the plan cache: hit/miss plus the
// originating lane and solve span on a hit.
type CacheRef = obs.CacheRef

// TimeSeries is the fixed-size ring of per-interval campaign samples
// served under the status snapshot.
type TimeSeries = obs.Series

// SeriesPoint is one time-series sample.
type SeriesPoint = obs.SeriesPoint

// CampaignReport is the flight-recorder digest of a campaign trace:
// coverage curves, top solves by coverage unlocked, unsolved targets,
// per-rank solver time, and the cross-process chain if one exists.
type CampaignReport = obs.CampaignReport

// Observability constructors and helpers.
var (
	// NewObserver builds an observer (zero Options = metrics only).
	NewObserver = obs.New
	// NewJSONLTracer wraps a writer as a JSONL event sink.
	NewJSONLTracer = obs.NewJSONLTracer
	// NewTimeSeries builds a sample ring (capacity <= 0 = default 512).
	NewTimeSeries = obs.NewSeries
	// ServeStatus starts the live status + Prometheus + pprof endpoint.
	ServeStatus = obs.ServeStatus
	// ValidateTrace checks a JSONL event stream against the schema.
	ValidateTrace = obs.ValidateTrace
	// ReadTraceEvents decodes a JSONL event stream without the ordering
	// checks (merged multi-rank traces interleave lanes).
	ReadTraceEvents = obs.ReadEvents
	// ValidateSpans checks a trace's causal spans for referential
	// integrity: parents exist, the graph is acyclic and rooted in
	// campaign spans, kinds nest legally.
	ValidateSpans = obs.ValidateSpans
	// FindCrossRankChain reconstructs a complete cross-process
	// plan-reuse chain from a merged trace, if one exists.
	FindCrossRankChain = obs.FindCrossRankChain
	// WritePrometheus renders a registry in Prometheus text format.
	WritePrometheus = obs.WritePrometheus
	// BuildCampaignReport digests a validated trace into a report.
	BuildCampaignReport = obs.BuildCampaignReport
	// RenderReportHTML writes a report as self-contained HTML whose
	// bytes depend only on the trace.
	RenderReportHTML = obs.RenderHTML
	// RenderReportText writes a report as terminal text.
	RenderReportText = obs.RenderText
)

// ---- cost profiling (campaign cost ledgers) ----

// Profiler attributes campaign cost to design constructs: per-IR-process
// simulator eval counts, per-CFG-target solver ledgers, and the
// cumulative coverage-unlocked-per-cost curve. Pass one via
// Config.Prof; a nil Profiler disables profiling at negligible cost,
// and profiling is strictly observational — reports are byte-identical
// with it on or off.
type Profiler = prof.Profiler

// ProfilerOptions configures NewProfiler.
type ProfilerOptions = prof.Options

// RankLedger is one worker rank's complete cost ledger (the unit
// shipped on the distributed report wire and merged rank-ordered).
type RankLedger = prof.RankLedger

// CostDump is the serialized campaign ledger file written by
// `symbfuzz -prof` and consumed by cmd/fuzzprof. Its Canonical form
// strips every wall-clock annotation and is byte-identical across
// runs, worker counts, and the in-process vs. distributed
// orchestrators for a fixed seed.
type CostDump = prof.Dump

// Cost-profiling constructors and helpers.
var (
	// NewProfiler builds a campaign profiler (zero options = rank 0,
	// monotonic clock, default sampling stride).
	NewProfiler = prof.New
	// NewCostDump assembles a campaign dump from rank ledgers.
	NewCostDump = prof.NewDump
	// ReadCostDump loads and schema-checks a ledger dump file.
	ReadCostDump = prof.ReadDump
)

// ---- UVM testbench (Figure 2) ----

// Env is the UVM testbench environment (sequencer, driver, monitor,
// scoreboard around a simulated DUV).
type Env = uvm.Env

// EnvConfig parameterizes environment construction.
type EnvConfig = uvm.EnvConfig

// Item is one stimulus transaction; its fields are sorted by name
// (build them with Item.Set).
type Item = uvm.Item

// Field is one named stimulus value of an Item.
type Field = uvm.Field

// NewEnv builds a UVM environment around a design.
func NewEnv(d *Design, c EnvConfig) (*Env, error) { return uvm.NewEnv(d, c) }

// ---- SMT (exposed for advanced constraint authoring) ----

// Term is a bit-vector SMT term; see the smt constructors re-exported
// below for building sequencer constraints (Listing 3 style).
type Term = smt.Term

// SMT term constructors for sequencer constraints.
var (
	TermVar   = smt.Var
	TermConst = smt.ConstUint
	TermEq    = smt.Eq
	TermNe    = smt.Ne
	TermUlt   = smt.Ult
	TermAnd   = smt.And
	TermOr    = smt.Or
	TermNot   = smt.Not
)
