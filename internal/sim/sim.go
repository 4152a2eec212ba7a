// Package sim is an event-driven four-state RTL simulator over the
// elaborated design IR. It supports delta-cycle combinational settling,
// clocked processes with asynchronous set/reset edges, non-blocking
// assignment semantics, clock/reset tree detection, cycle listeners (for
// properties and VCD dumping), branch tracing (for coverage), and cheap
// state snapshots used by SymbFuzz's checkpoint mechanism (§4.5).
package sim

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/elab"
	"repro/internal/logic"
)

// ErrCombLoop is returned when combinational settling does not converge.
var ErrCombLoop = errors.New("sim: combinational loop did not settle")

// Tracer receives branch-arm events; re-exported so callers don't need
// to import elab.
type Tracer = elab.Tracer

// CycleListener is called after each completed clock cycle. It
// receives the DUV interface rather than the concrete simulator so the
// same listeners (coverage sampling, property checking, VCD dumping)
// work unchanged against the compiled backend.
type CycleListener func(s DUV)

// Simulator executes an elaborated design.
type Simulator struct {
	d    *elab.Design
	vals []logic.BV
	mems [][]logic.BV

	// sensitivity maps
	combBySig [][]int // signal index -> comb process indices
	combByMem [][]int // memory index -> comb process indices
	seqBySig  [][]int // signal index -> seq process indices

	queued    []bool // comb process queued
	queue     []int
	pendEdges []pendingEdge
	nba       []nbaEntry
	nbaMem    []nbaMemEntry

	cycle   uint64
	tracer  Tracer
	onCycle []CycleListener

	// scratch for edge detection
	inProcess bool

	// profiling (nil/zero when off): per-process eval counts, plus
	// sampled eval wall time through an injected clock — this package
	// never reads the clock itself, keeping it pure (fuzzvet timenow).
	profEvals   []uint64
	profClock   func() int64
	profEvery   uint64
	profTick    uint64
	profNS      []int64
	profSamples []uint64
}

type pendingEdge struct{ proc int }

type nbaEntry struct {
	sig int
	val logic.BV
}

type nbaMemEntry struct {
	mem  int
	addr uint64
	val  logic.BV
}

// New creates a simulator with every signal and memory word unknown
// ('X'), then settles the combinational logic once.
func New(d *elab.Design) (*Simulator, error) {
	s := &Simulator{
		d:         d,
		vals:      make([]logic.BV, len(d.Signals)),
		mems:      make([][]logic.BV, len(d.Memories)),
		combBySig: make([][]int, len(d.Signals)),
		combByMem: make([][]int, len(d.Memories)),
		seqBySig:  make([][]int, len(d.Signals)),
		queued:    make([]bool, len(d.Procs)),
	}
	for i, sig := range d.Signals {
		if sig.Init != nil {
			s.vals[i] = *sig.Init
		} else {
			s.vals[i] = logic.X(sig.Width)
		}
	}
	for i, m := range d.Memories {
		words := make([]logic.BV, m.Depth)
		for j := range words {
			words[j] = logic.X(m.Width)
		}
		s.mems[i] = words
	}
	for pi, p := range d.Procs {
		switch p.Kind {
		case elab.ProcComb:
			// always_comb semantics: the block is sensitive to what it
			// reads EXCLUDING what it also writes (self-read-modify
			// patterns like "x = 0; x[i] = ..." must not retrigger).
			written := map[int]bool{}
			for _, w := range p.Writes {
				written[w] = true
			}
			for _, r := range p.Reads {
				if written[r] {
					continue
				}
				s.combBySig[r] = append(s.combBySig[r], pi)
			}
			for _, m := range p.MemReads {
				s.combByMem[m] = append(s.combByMem[m], pi)
			}
		case elab.ProcSeq:
			for _, e := range p.Edges {
				s.seqBySig[e.Signal] = append(s.seqBySig[e.Signal], pi)
			}
		}
	}
	// Initial settle: evaluate every comb process once.
	for pi, p := range d.Procs {
		if p.Kind == elab.ProcComb {
			s.enqueue(pi)
		}
	}
	if err := s.Settle(); err != nil {
		return nil, err
	}
	return s, nil
}

// Design returns the elaborated design under simulation.
func (s *Simulator) Design() *elab.Design { return s.d }

// EnableProfile turns on per-process evaluation counting. clock (may
// be nil) supplies monotonic nanoseconds for sampled eval timing — it
// is injected by the caller so the simulator itself stays free of
// wall-clock reads; every sampleEvery-th process evaluation is timed.
func (s *Simulator) EnableProfile(clock func() int64, sampleEvery uint64) {
	s.profEvals = make([]uint64, len(s.d.Procs))
	s.profNS = make([]int64, len(s.d.Procs))
	s.profSamples = make([]uint64, len(s.d.Procs))
	s.profClock = clock
	if sampleEvery == 0 {
		sampleEvery = 64
	}
	s.profEvery = sampleEvery
}

// ProfileCounts returns the per-process profile: total body
// executions, sampled-eval wall nanoseconds, and how many evals were
// sampled. All three are indexed by process; nil when profiling is off.
func (s *Simulator) ProfileCounts() (evals []uint64, sampledNS []int64, sampled []uint64) {
	return s.profEvals, s.profNS, s.profSamples
}

// execProc runs one process body, attributing the eval to the profile
// when enabled. The disabled cost is a single nil check.
func (s *Simulator) execProc(pi int) {
	body := s.d.Procs[pi].Body
	if s.profEvals != nil {
		s.profEvals[pi]++
		s.profTick++
		if s.profClock != nil && s.profTick%s.profEvery == 0 {
			t0 := s.profClock()
			for _, st := range body {
				st.Exec(s)
			}
			s.profNS[pi] += s.profClock() - t0
			s.profSamples[pi]++
			return
		}
	}
	for _, st := range body {
		st.Exec(s)
	}
}

// Cycle returns the number of completed clock cycles.
func (s *Simulator) Cycle() uint64 { return s.cycle }

// SetTracer installs the branch-event tracer (coverage monitor).
func (s *Simulator) SetTracer(t Tracer) { s.tracer = t }

// OnCycle registers a listener invoked after every completed cycle.
func (s *Simulator) OnCycle(fn CycleListener) { s.onCycle = append(s.onCycle, fn) }

// ---- elab.Sink implementation ----

// Get returns the current value of a signal.
func (s *Simulator) Get(sig int) logic.BV { return s.vals[sig] }

// Words returns the planes of a signal's stored value (see DUV.Words).
func (s *Simulator) Words(sig int) (a, b []uint64) { return s.vals[sig].Words() }

// GetMem returns a memory word (X for out-of-range).
func (s *Simulator) GetMem(mem int, addr uint64) logic.BV {
	words := s.mems[mem]
	if addr >= uint64(len(words)) {
		return logic.X(s.d.Memories[mem].Width)
	}
	return words[addr]
}

// Set performs a blocking write, scheduling dependent processes.
func (s *Simulator) Set(sig int, v logic.BV) { s.apply(sig, v) }

// SetNB queues a non-blocking write committed at the end of the current
// edge evaluation.
func (s *Simulator) SetNB(sig int, v logic.BV) {
	s.nba = append(s.nba, nbaEntry{sig: sig, val: v})
}

// SetMem performs a blocking memory write.
func (s *Simulator) SetMem(mem int, addr uint64, v logic.BV) {
	words := s.mems[mem]
	if addr >= uint64(len(words)) {
		return
	}
	if words[addr].Eq4(v) {
		return
	}
	words[addr] = v
	for _, pi := range s.combByMem[mem] {
		s.enqueue(pi)
	}
}

// SetMemNB queues a non-blocking memory write.
func (s *Simulator) SetMemNB(mem int, addr uint64, v logic.BV) {
	s.nbaMem = append(s.nbaMem, nbaMemEntry{mem: mem, addr: addr, val: v})
}

// Branch forwards a branch event to the installed tracer.
func (s *Simulator) Branch(id, arm int) {
	if s.tracer != nil {
		s.tracer.Branch(id, arm)
	}
}

// ---- core engine ----

func (s *Simulator) enqueue(pi int) {
	if !s.queued[pi] {
		s.queued[pi] = true
		s.queue = append(s.queue, pi)
	}
}

// apply writes a signal value, detecting clock edges and scheduling
// sensitive processes.
func (s *Simulator) apply(sig int, v logic.BV) {
	old := s.vals[sig]
	v = v.Resize(old.Width())
	if old.Eq4(v) {
		return
	}
	s.vals[sig] = v
	for _, pi := range s.combBySig[sig] {
		s.enqueue(pi)
	}
	if len(s.seqBySig[sig]) > 0 {
		oldBit, newBit := old.Bit(0), v.Bit(0)
		pos := oldBit != logic.L1 && newBit == logic.L1
		neg := oldBit != logic.L0 && newBit == logic.L0
		if pos || neg {
			for _, pi := range s.seqBySig[sig] {
				for _, e := range s.d.Procs[pi].Edges {
					if e.Signal == sig && ((e.Posedge && pos) || (!e.Posedge && neg)) {
						s.pendEdges = append(s.pendEdges, pendingEdge{proc: pi})
						break
					}
				}
			}
		}
	}
}

// Settle runs the event loop to quiescence: combinational fixpoint,
// then triggered sequential processes with non-blocking commit, repeated
// until nothing is pending.
func (s *Simulator) Settle() error {
	limit := 64 * (len(s.d.Procs) + 16)
	steps := 0
	for {
		// Combinational fixpoint.
		for len(s.queue) > 0 {
			pi := s.queue[0]
			s.queue = s.queue[1:]
			s.queued[pi] = false
			s.execProc(pi)
			steps++
			if steps > limit*16 {
				return fmt.Errorf("%w (process %s)", ErrCombLoop, s.d.Procs[pi].Name)
			}
		}
		if len(s.pendEdges) == 0 {
			return nil
		}
		// Fire triggered sequential processes: evaluate all bodies
		// (collecting NBA writes), then commit the writes.
		edges := s.pendEdges
		s.pendEdges = nil
		seen := map[int]bool{}
		for _, e := range edges {
			if seen[e.proc] {
				continue
			}
			seen[e.proc] = true
			s.execProc(e.proc)
		}
		nba := s.nba
		s.nba = s.nba[:0]
		for _, w := range nba {
			s.apply(w.sig, w.val)
		}
		nbaMem := s.nbaMem
		s.nbaMem = s.nbaMem[:0]
		for _, w := range nbaMem {
			s.SetMem(w.mem, w.addr, w.val)
		}
		steps++
		if steps > limit*16 {
			return ErrCombLoop
		}
	}
}

// ---- user-facing drive API ----

// SignalIndex resolves a hierarchical signal name; -1 if unknown.
func (s *Simulator) SignalIndex(name string) int {
	if sig, ok := s.d.ByName[name]; ok {
		return sig.Index
	}
	return -1
}

// Poke sets a signal by name and settles. Intended for inputs.
func (s *Simulator) Poke(name string, v logic.BV) error {
	idx := s.SignalIndex(name)
	if idx < 0 {
		return fmt.Errorf("sim: unknown signal %q", name)
	}
	s.apply(idx, v)
	return s.Settle()
}

// PokeIdx sets a signal by index and settles.
func (s *Simulator) PokeIdx(idx int, v logic.BV) error {
	s.apply(idx, v)
	return s.Settle()
}

// Peek reads a signal by name.
func (s *Simulator) Peek(name string) (logic.BV, error) {
	idx := s.SignalIndex(name)
	if idx < 0 {
		return logic.BV{}, fmt.Errorf("sim: unknown signal %q", name)
	}
	return s.vals[idx], nil
}

// AdvanceCycle increments the cycle counter and fires cycle listeners
// without toggling a clock; used for purely combinational DUVs where
// each applied stimulus vector counts as one evaluation cycle.
func (s *Simulator) AdvanceCycle() {
	s.cycle++
	for _, fn := range s.onCycle {
		fn(s)
	}
}

// Tick drives one full clock cycle on the given clock signal index:
// rising edge, settle, falling edge, settle, then fires cycle listeners.
func (s *Simulator) Tick(clk int) error {
	s.apply(clk, logic.Ones(1))
	if err := s.Settle(); err != nil {
		return err
	}
	s.apply(clk, logic.Zero(1))
	if err := s.Settle(); err != nil {
		return err
	}
	s.cycle++
	for _, fn := range s.onCycle {
		fn(s)
	}
	return nil
}

// ---- clock / reset tree ----

// ResetInfo describes the detected clock and reset tree of a design.
type ResetInfo struct {
	Clock     int // clock signal index (-1 if none)
	Reset     int // reset signal index (-1 if none)
	ActiveLow bool
	// Tree lists every signal participating in sequential sensitivity
	// lists, i.e. the reset distribution tree of §4.3.
	Tree []int
}

// aliasMap maps signals driven by pure pass-through assignments (port
// connections, buffers) to their source signal, so clock and reset pins
// of child instances resolve to the top-level distribution roots.
func aliasMap(d *elab.Design) map[int]int {
	alias := map[int]int{}
	for _, p := range d.Procs {
		if p.Kind != elab.ProcComb || len(p.Body) != 1 {
			continue
		}
		sa, ok := p.Body[0].(elab.SAssign)
		if !ok {
			continue
		}
		lhs, ok := sa.LHS.(elab.TSig)
		if !ok {
			continue
		}
		rhs := sa.RHS
		if z, isZ := rhs.(elab.ZExt); isZ {
			rhs = z.X
		}
		if sig, isSig := rhs.(elab.Sig); isSig {
			alias[lhs.Idx] = sig.Idx
		}
	}
	return alias
}

// resolveAlias follows pass-through chains to the distribution root.
func resolveAlias(alias map[int]int, sig int) int {
	for i := 0; i < 64; i++ {
		src, ok := alias[sig]
		if !ok || src == sig {
			return sig
		}
		sig = src
	}
	return sig
}

// DetectClockReset inspects sequential sensitivity lists and port names
// to find the primary clock and reset, building the reset tree the paper
// extracts for deterministic test execution. Child-instance clock pins
// resolve through their connection chain to the top-level root, so the
// whole tree toggles together.
func DetectClockReset(d *elab.Design) ResetInfo {
	info := ResetInfo{Clock: -1, Reset: -1}
	alias := aliasMap(d)
	posCount := map[int]int{}
	negCount := map[int]int{}
	inTree := map[int]bool{}
	for _, p := range d.Procs {
		if p.Kind != elab.ProcSeq {
			continue
		}
		for _, e := range p.Edges {
			root := resolveAlias(alias, e.Signal)
			inTree[root] = true
			if e.Posedge {
				posCount[root]++
			} else {
				negCount[root]++
			}
		}
	}
	for idx := range inTree {
		info.Tree = append(info.Tree, idx)
	}
	looksReset := func(name string) bool {
		n := strings.ToLower(name)
		return strings.Contains(n, "rst") || strings.Contains(n, "reset")
	}
	best := -1
	for idx, c := range posCount {
		if looksReset(d.Signals[idx].Name) {
			continue
		}
		if best == -1 || c > posCount[best] {
			best = idx
		}
	}
	info.Clock = best
	// Active-low reset: most common negedge signal, or a posedge signal
	// with a reset-like name.
	bestNeg := -1
	for idx, c := range negCount {
		if bestNeg == -1 || c > negCount[bestNeg] {
			bestNeg = idx
		}
	}
	if bestNeg >= 0 {
		info.Reset = bestNeg
		info.ActiveLow = true
		return info
	}
	for idx := range posCount {
		if looksReset(d.Signals[idx].Name) {
			info.Reset = idx
			info.ActiveLow = false
			return info
		}
	}
	// Fall back to a reset-named input port (synchronous reset designs).
	for _, sig := range d.InputSignals() {
		if looksReset(sig.Name) {
			info.Reset = sig.Index
			info.ActiveLow = strings.Contains(strings.ToLower(sig.Name), "n")
			return info
		}
	}
	return info
}

// ApplyReset asserts the detected reset for the given number of cycles
// and deasserts it, leaving the design in its deterministic start state.
func (s *Simulator) ApplyReset(info ResetInfo, cycles int) error {
	return RunReset(s, info, cycles)
}

// ---- snapshots (checkpoint substrate, §4.5) ----

// Snapshot is a deep copy of all architectural state.
type Snapshot struct {
	Vals  []logic.BV
	Mems  [][]logic.BV
	Cycle uint64
}

// Snapshot captures the current state. BV values are immutable, so only
// the slices are copied.
func (s *Simulator) Snapshot() *Snapshot {
	snap := &Snapshot{
		Vals:  make([]logic.BV, len(s.vals)),
		Mems:  make([][]logic.BV, len(s.mems)),
		Cycle: s.cycle,
	}
	copy(snap.Vals, s.vals)
	for i, m := range s.mems {
		snap.Mems[i] = make([]logic.BV, len(m))
		copy(snap.Mems[i], m)
	}
	return snap
}

// Bytes approximates the snapshot's architectural footprint: two
// 64-bit planes per bit-vector word plus slice headers. The engine
// accounts checkpoint memory cost with it (the §5 snapshot-vs-replay
// ablation's space axis).
func (snap *Snapshot) Bytes() int64 {
	const header = 48 // BV: width int + two slice headers
	total := int64(0)
	for _, v := range snap.Vals {
		total += header + 2*8*int64((v.Width()+63)/64)
	}
	for _, m := range snap.Mems {
		for _, v := range m {
			total += header + 2*8*int64((v.Width()+63)/64)
		}
	}
	return total
}

// Restore rewinds the simulator to a snapshot. Pending events are
// discarded; the state is exactly as captured.
func (s *Simulator) Restore(snap *Snapshot) {
	copy(s.vals, snap.Vals)
	for i := range s.mems {
		copy(s.mems[i], snap.Mems[i])
	}
	s.cycle = snap.Cycle
	s.queue = s.queue[:0]
	for i := range s.queued {
		s.queued[i] = false
	}
	s.pendEdges = s.pendEdges[:0]
	s.nba = s.nba[:0]
	s.nbaMem = s.nbaMem[:0]
}
