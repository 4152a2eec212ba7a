// Package simc is a compiled-simulation backend over the elaborated
// design IR. Where internal/sim interprets the IR tree on immutable
// logic.BV values, simc lowers every process body once into Go closure
// trees over a word-packed two-plane signal arena. A node whose result
// and operands fit in one 64-bit word evaluates to an (aval, bval) pair
// of uint64s; wider nodes evaluate into preallocated word buffers.
// Both lowerings apply the exact four-state formulas, bit-identical to
// logic.BV.
//
// The Machine implements the same sim.DUV contract as the interpreter
// and replicates the interpreter's event scheduler exactly: same FIFO
// combinational queue, same edge detection, same non-blocking commit
// order, same settle limits. That makes the two backends
// observationally identical: same values, same branch-event stream
// (hence byte-identical coverage and campaign reports), same snapshot
// bytes.
package simc

import (
	"fmt"

	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/sim"
)

// slot locates one signal's planes inside the arena.
type slot struct {
	off, nw, width int
}

type pendingEdge struct{ proc int }

// nbaSlot is one queued non-blocking write: nw words at off in the
// machine's NBA word pool (offsets, not slices — the pool reallocates
// as it grows).
type nbaSlot struct {
	sig, off, nw int
}

type nbaMemEntry struct {
	mem  int
	addr uint64
	val  logic.BV
}

// Machine executes an elaborated design through compiled closures.
type Machine struct {
	d     *elab.Design
	slots []slot
	aw    []uint64 // aval plane arena, all signals
	bw    []uint64 // bval plane arena
	views []*pval  // per-signal arena views
	mems  [][]logic.BV

	bodies [][]stmtF

	// sensitivity maps (mirrors sim.Simulator)
	combBySig [][]int
	combByMem [][]int
	seqBySig  [][]int

	// The scheduler reuses its buffers, so a steady-state Settle does
	// not allocate. queue is a FIFO consumed from qhead and emptied once
	// drained. pendEdges and edgeBuf swap roles per edge batch, and a
	// process already ran in the current batch iff ranGen[pi] == gen.
	queued    []bool
	queue     []int
	qhead     int
	pendEdges []pendingEdge
	edgeBuf   []pendingEdge
	ranGen    []uint64
	gen       uint64
	nbaSig    []nbaSlot
	nbaA      []uint64
	nbaB      []uint64
	nbaMem    []nbaMemEntry
	// levelA and levelB hold a clock level's planes for Tick: only
	// levelA[0] is ever nonzero.
	levelA, levelB []uint64

	cycle   uint64
	tracer  sim.Tracer
	onCycle []sim.CycleListener

	// profiling (mirrors sim.Simulator)
	profEvals   []uint64
	profClock   func() int64
	profEvery   uint64
	profTick    uint64
	profNS      []int64
	profSamples []uint64
}

// Compile-time check: the Machine is a drop-in DUV backend.
var _ sim.DUV = (*Machine)(nil)

// New compiles a design and settles it once, with every signal and
// memory word starting unknown ('X') exactly like the interpreter.
func New(d *elab.Design) (*Machine, error) {
	m := &Machine{
		d:         d,
		slots:     make([]slot, len(d.Signals)),
		views:     make([]*pval, len(d.Signals)),
		mems:      make([][]logic.BV, len(d.Memories)),
		combBySig: make([][]int, len(d.Signals)),
		combByMem: make([][]int, len(d.Memories)),
		seqBySig:  make([][]int, len(d.Signals)),
		queued:    make([]bool, len(d.Procs)),
		ranGen:    make([]uint64, len(d.Procs)),
	}
	// Lay out the arena and initialize: declaration initializer when
	// present, all-X otherwise.
	total := 0
	for i, sig := range d.Signals {
		nw := pwords(sig.Width)
		m.slots[i] = slot{off: total, nw: nw, width: sig.Width}
		total += nw
	}
	m.aw = make([]uint64, total)
	m.bw = make([]uint64, total)
	maxNW := 1
	for _, s := range m.slots {
		maxNW = max(maxNW, s.nw)
	}
	m.levelA = make([]uint64, maxNW)
	m.levelB = make([]uint64, maxNW)
	for i, sig := range d.Signals {
		s := m.slots[i]
		m.views[i] = view(sig.Width, m.aw[s.off:s.off+s.nw], m.bw[s.off:s.off+s.nw])
		if sig.Init != nil {
			a, b := sig.Init.Words()
			copy(m.aw[s.off:s.off+s.nw], a)
			copy(m.bw[s.off:s.off+s.nw], b)
		} else {
			for w := s.off; w < s.off+s.nw; w++ {
				m.aw[w] = ^uint64(0)
				m.bw[w] = ^uint64(0)
			}
		}
		m.views[i].maskTop()
	}
	for i, mem := range d.Memories {
		words := make([]logic.BV, mem.Depth)
		for j := range words {
			words[j] = logic.X(mem.Width)
		}
		m.mems[i] = words
	}
	// Sensitivity maps, identical to the interpreter's construction
	// (including the always_comb self-write exclusion).
	for pi, p := range d.Procs {
		switch p.Kind {
		case elab.ProcComb:
			written := map[int]bool{}
			for _, w := range p.Writes {
				written[w] = true
			}
			for _, r := range p.Reads {
				if written[r] {
					continue
				}
				m.combBySig[r] = append(m.combBySig[r], pi)
			}
			for _, mr := range p.MemReads {
				m.combByMem[mr] = append(m.combByMem[mr], pi)
			}
		case elab.ProcSeq:
			for _, e := range p.Edges {
				m.seqBySig[e.Signal] = append(m.seqBySig[e.Signal], pi)
			}
		}
	}
	// Lower every process body to closures.
	c := &compiler{m: m}
	m.bodies = make([][]stmtF, len(d.Procs))
	for pi, p := range d.Procs {
		m.bodies[pi] = c.compileStmts(p.Body)
	}
	// Initial settle: evaluate every comb process once.
	for pi, p := range d.Procs {
		if p.Kind == elab.ProcComb {
			m.enqueue(pi)
		}
	}
	if err := m.Settle(); err != nil {
		return nil, err
	}
	return m, nil
}

// Design returns the elaborated design under simulation.
func (m *Machine) Design() *elab.Design { return m.d }

// sigView returns the live arena view of a signal.
func (m *Machine) sigView(sig int) *pval { return m.views[sig] }

// EnableProfile turns on per-process evaluation counting (see
// sim.Simulator.EnableProfile; identical semantics and attribution
// keys, so trace cost ledgers are backend-independent).
func (m *Machine) EnableProfile(clock func() int64, sampleEvery uint64) {
	m.profEvals = make([]uint64, len(m.d.Procs))
	m.profNS = make([]int64, len(m.d.Procs))
	m.profSamples = make([]uint64, len(m.d.Procs))
	m.profClock = clock
	if sampleEvery == 0 {
		sampleEvery = 64
	}
	m.profEvery = sampleEvery
}

// ProfileCounts returns the per-process profile (nil when off).
func (m *Machine) ProfileCounts() (evals []uint64, sampledNS []int64, sampled []uint64) {
	return m.profEvals, m.profNS, m.profSamples
}

func (m *Machine) execProc(pi int) {
	body := m.bodies[pi]
	if m.profEvals != nil {
		m.profEvals[pi]++
		m.profTick++
		if m.profClock != nil && m.profTick%m.profEvery == 0 {
			t0 := m.profClock()
			runStmts(body)
			m.profNS[pi] += m.profClock() - t0
			m.profSamples[pi]++
			return
		}
	}
	runStmts(body)
}

// Cycle returns the number of completed clock cycles.
func (m *Machine) Cycle() uint64 { return m.cycle }

// SetTracer installs the branch-event tracer (coverage monitor).
func (m *Machine) SetTracer(t sim.Tracer) { m.tracer = t }

// OnCycle registers a listener invoked after every completed cycle.
func (m *Machine) OnCycle(fn sim.CycleListener) { m.onCycle = append(m.onCycle, fn) }

// Branch forwards a branch event to the installed tracer.
func (m *Machine) Branch(id, arm int) {
	if m.tracer != nil {
		m.tracer.Branch(id, arm)
	}
}

// Get returns the current value of a signal.
func (m *Machine) Get(sig int) logic.BV {
	v := m.views[sig]
	return logic.FromWords(v.width, v.a, v.b)
}

// Words returns a signal's live arena planes (see sim.DUV.Words): the
// next write to the signal changes them in place.
func (m *Machine) Words(sig int) (a, b []uint64) {
	v := m.views[sig]
	return v.a, v.b
}

// GetMem returns a memory word (X for out-of-range).
func (m *Machine) GetMem(mem int, addr uint64) logic.BV {
	words := m.mems[mem]
	if addr >= uint64(len(words)) {
		return logic.X(m.d.Memories[mem].Width)
	}
	return words[addr]
}

// Set performs a blocking write, scheduling dependent processes.
func (m *Machine) Set(sig int, v logic.BV) {
	v = v.Resize(m.slots[sig].width)
	a, b := v.Words()
	m.applyWords(sig, a, b)
}

// SetMem performs a blocking memory write.
func (m *Machine) SetMem(mem int, addr uint64, v logic.BV) {
	words := m.mems[mem]
	if addr >= uint64(len(words)) {
		return
	}
	if words[addr].Eq4(v) {
		return
	}
	words[addr] = v
	for _, pi := range m.combByMem[mem] {
		m.enqueue(pi)
	}
}

// ---- core engine (exact port of the interpreter's scheduler) ----

func (m *Machine) enqueue(pi int) {
	if !m.queued[pi] {
		m.queued[pi] = true
		m.queue = append(m.queue, pi)
	}
}

// applyPval is applyWords for a compiled buffer already at signal width.
func (m *Machine) applyPval(sig int, p *pval) { m.applyWords(sig, p.a, p.b) }

// applyWords writes a signal value (planes already resized to the
// signal width), detecting clock edges and scheduling sensitive
// processes. Word equality under the mask invariant is exactly the
// interpreter's Eq4 skip.
func (m *Machine) applyWords(sig int, a, b []uint64) {
	if len(a) == 1 {
		m.applyWord(sig, a[0], b[0])
		return
	}
	v := m.views[sig]
	same := true
	for i := range v.a {
		if v.a[i] != a[i] || v.b[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		return
	}
	// Capture the old LSB before overwriting for edge detection.
	oldA, oldB := v.a[0], v.b[0]
	copy(v.a, a)
	copy(v.b, b)
	m.changed(sig, oldA, oldB, a[0], b[0])
}

// applyWord is applyWords for a one-word signal: it compares and
// commits the signal's arena word in place.
func (m *Machine) applyWord(sig int, a, b uint64) {
	off := m.slots[sig].off
	oldA, oldB := m.aw[off], m.bw[off]
	if oldA == a && oldB == b {
		return
	}
	m.aw[off], m.bw[off] = a, b
	m.changed(sig, oldA, oldB, a, b)
}

// changed schedules the processes sensitive to a signal whose value
// just changed, from the old and new planes of its word 0: every
// combinational reader, then every sequential process with a matching
// edge on bit 0.
func (m *Machine) changed(sig int, oldA, oldB, newA, newB uint64) {
	for _, pi := range m.combBySig[sig] {
		m.enqueue(pi)
	}
	if len(m.seqBySig[sig]) == 0 {
		return
	}
	oldA, oldB, newA, newB = oldA&1, oldB&1, newA&1, newB&1
	// pos: old != L1 && new == L1; neg: old != L0 && new == L0.
	pos := !(oldA == 1 && oldB == 0) && (newA == 1 && newB == 0)
	neg := !(oldA == 0 && oldB == 0) && (newA == 0 && newB == 0)
	if !pos && !neg {
		return
	}
	for _, pi := range m.seqBySig[sig] {
		for _, e := range m.d.Procs[pi].Edges {
			if e.Signal == sig && ((e.Posedge && pos) || (!e.Posedge && neg)) {
				m.pendEdges = append(m.pendEdges, pendingEdge{proc: pi})
				break
			}
		}
	}
}

// scheduleNB queues a non-blocking write: the value words are copied
// into the machine's NBA pool and committed at the end of the current
// edge evaluation, in program order like the interpreter.
func (m *Machine) scheduleNB(sig int, p *pval) {
	off := len(m.nbaA)
	m.nbaA = append(m.nbaA, p.a...)
	m.nbaB = append(m.nbaB, p.b...)
	m.nbaSig = append(m.nbaSig, nbaSlot{sig: sig, off: off, nw: len(p.a)})
}

// scheduleNBWord is scheduleNB for a one-word value.
func (m *Machine) scheduleNBWord(sig int, a, b uint64) {
	m.nbaSig = append(m.nbaSig, nbaSlot{sig: sig, off: len(m.nbaA), nw: 1})
	m.nbaA = append(m.nbaA, a)
	m.nbaB = append(m.nbaB, b)
}

// branchIf runs an if statement's arm for its condition's truth value,
// raising the branch event first.
func (m *Machine) branchIf(id, truth int, then, els []stmtF) {
	switch truth {
	case tOne:
		m.Branch(id, 0)
		runStmts(then)
	case tZero:
		m.Branch(id, 1)
		runStmts(els)
	default:
		m.Branch(id, 2)
	}
}

// popProc removes the next combinational process from the FIFO queue
// (interpreter order).
func (m *Machine) popProc() int {
	pi := m.queue[m.qhead]
	m.qhead++
	if m.qhead == len(m.queue) {
		m.queue, m.qhead = m.queue[:0], 0
	}
	return pi
}

// Settle runs the event loop to quiescence: combinational fixpoint,
// then triggered sequential processes with non-blocking commit,
// repeated until nothing is pending. Structure, limits, and ordering
// mirror sim.Simulator.Settle exactly.
func (m *Machine) Settle() error {
	limit := 64 * (len(m.d.Procs) + 16)
	steps := 0
	for {
		for m.qhead < len(m.queue) {
			pi := m.popProc()
			m.queued[pi] = false
			m.execProc(pi)
			steps++
			if steps > limit*16 {
				return fmt.Errorf("%w (process %s)", sim.ErrCombLoop, m.d.Procs[pi].Name)
			}
		}
		if len(m.pendEdges) == 0 {
			return nil
		}
		// Edges raised while this batch runs go to the other buffer.
		edges := m.pendEdges
		m.pendEdges = m.edgeBuf[:0]
		m.gen++
		for _, e := range edges {
			if m.ranGen[e.proc] == m.gen {
				continue
			}
			m.ranGen[e.proc] = m.gen
			m.execProc(e.proc)
		}
		m.edgeBuf = edges
		nba := m.nbaSig
		m.nbaSig = m.nbaSig[:0]
		for _, w := range nba {
			m.applyWords(w.sig, m.nbaA[w.off:w.off+w.nw], m.nbaB[w.off:w.off+w.nw])
		}
		m.nbaA = m.nbaA[:0]
		m.nbaB = m.nbaB[:0]
		nbaMem := m.nbaMem
		m.nbaMem = m.nbaMem[:0]
		for _, w := range nbaMem {
			m.SetMem(w.mem, w.addr, w.val)
		}
		steps++
		if steps > limit*16 {
			return sim.ErrCombLoop
		}
	}
}

// ---- user-facing drive API ----

// SignalIndex resolves a hierarchical signal name; -1 if unknown.
func (m *Machine) SignalIndex(name string) int {
	if sig, ok := m.d.ByName[name]; ok {
		return sig.Index
	}
	return -1
}

// Peek reads a signal by name.
func (m *Machine) Peek(name string) (logic.BV, error) {
	idx := m.SignalIndex(name)
	if idx < 0 {
		return logic.BV{}, fmt.Errorf("simc: unknown signal %q", name)
	}
	return m.Get(idx), nil
}

// AdvanceCycle increments the cycle counter and fires cycle listeners
// without toggling a clock (combinational DUVs).
func (m *Machine) AdvanceCycle() {
	m.cycle++
	for _, fn := range m.onCycle {
		fn(m)
	}
}

// Tick drives one full clock cycle on the given clock signal index.
func (m *Machine) Tick(clk int) error {
	m.setLevel(clk, 1)
	if err := m.Settle(); err != nil {
		return err
	}
	m.setLevel(clk, 0)
	if err := m.Settle(); err != nil {
		return err
	}
	m.cycle++
	for _, fn := range m.onCycle {
		fn(m)
	}
	return nil
}

// setLevel is Set(sig, logic.Ones(1)) for level 1 and Set(sig,
// logic.Zero(1)) for level 0, without building a BV.
func (m *Machine) setLevel(sig int, level uint64) {
	nw := m.slots[sig].nw
	m.levelA[0] = level
	m.applyWords(sig, m.levelA[:nw], m.levelB[:nw])
}

// ApplyReset asserts the detected reset and deasserts it through the
// shared sim.RunReset sequence.
func (m *Machine) ApplyReset(info sim.ResetInfo, cycles int) error {
	return sim.RunReset(m, info, cycles)
}

// ---- snapshots ----

// Snapshot captures all architectural state in the interpreter's
// snapshot format, so checkpoints transfer between backends and
// Snapshot.Bytes accounting is identical.
func (m *Machine) Snapshot() *sim.Snapshot {
	snap := &sim.Snapshot{
		Vals:  make([]logic.BV, len(m.slots)),
		Mems:  make([][]logic.BV, len(m.mems)),
		Cycle: m.cycle,
	}
	for i := range m.slots {
		snap.Vals[i] = m.Get(i)
	}
	for i, mem := range m.mems {
		snap.Mems[i] = make([]logic.BV, len(mem))
		copy(snap.Mems[i], mem)
	}
	return snap
}

// Restore rewinds the machine to a snapshot. Pending events are
// discarded; the state is exactly as captured.
func (m *Machine) Restore(snap *sim.Snapshot) {
	for i := range m.slots {
		v := snap.Vals[i].Resize(m.slots[i].width)
		a, b := v.Words()
		dst := m.views[i]
		copy(dst.a, a)
		copy(dst.b, b)
		dst.maskTop()
	}
	for i := range m.mems {
		copy(m.mems[i], snap.Mems[i])
	}
	m.cycle = snap.Cycle
	m.queue, m.qhead = m.queue[:0], 0
	for i := range m.queued {
		m.queued[i] = false
	}
	m.pendEdges = m.pendEdges[:0]
	m.nbaSig = m.nbaSig[:0]
	m.nbaA = m.nbaA[:0]
	m.nbaB = m.nbaB[:0]
	m.nbaMem = m.nbaMem[:0]
}
