// Package cov implements the coverage models the paper compares (§5.3):
//
//   - CFGCov — SymbFuzz's coverage (§4.6): CFG nodes (control-register
//     valuations), edges (transitions), and ⟨edge ID, C(i1,i2)⟩
//     interaction tuples.
//   - MuxCov — RFuzz's mux-select (branch-arm) coverage.
//   - RegCov — DifuzzRTL's hashed control-register-value coverage.
//   - EdgeHashCov — HWFP's AFL-style hashed edge coverage over the
//     instrumented branch stream.
//
// Each monitor plugs into the simulator as a branch tracer plus a
// per-cycle sampler, and reports a monotonically growing point count.
package cov

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/cfg"
	"repro/internal/elab"
	"repro/internal/sim"
)

// Monitor is a pluggable coverage model.
type Monitor interface {
	// Branch receives branch-arm events (sim tracer).
	Branch(id, arm int)
	// Sample is called once per completed cycle.
	Sample(s sim.DUV)
	// Points is the current number of distinct coverage points.
	Points() int
	// Name identifies the model.
	Name() string
}

// Attach wires a monitor to a DUV backend (tracer + cycle listener).
func Attach(s sim.DUV, m Monitor) {
	s.SetTracer(tracerFunc(m.Branch))
	s.OnCycle(func(sm sim.DUV) { m.Sample(sm) })
}

type tracerFunc func(id, arm int)

func (f tracerFunc) Branch(id, arm int) { f(id, arm) }

// ---- SymbFuzz CFG coverage ----

// CFGCov tracks node, edge and interaction-tuple coverage against the
// clustered static CFG of a design. Valuations and transitions absent
// from the (possibly truncated) static graphs are interned for position
// tracking but never counted or rendered, so the metric stays bounded
// on large designs.
type CFGCov struct {
	P *cfg.Partition
	// NodesSeen / EdgesSeen are static hits, per cluster graph.
	NodesSeen []map[int]bool
	EdgesSeen []map[int]bool
	// Tuples are the control-register interaction tuples of §4.6: each
	// exercised branch arm paired with the valuations of the control
	// registers that branch reads. The population is a sum of local
	// products (per-branch register domains), which is what keeps the
	// paper's coverage countable (~2x10^4 points) instead of the full
	// Cartesian state space.
	Tuples map[string]bool

	// Dropped counts branch events discarded at the event-buffer cap;
	// dropped events lose their interaction tuples for the cycle, so a
	// nonzero count means the tuple metric undercounts. The engine
	// reports it as the cov_events_dropped metric.
	Dropped uint64

	// The sampling state below is built by the first Sample or
	// SyncPosition (initSampling), so a CFGCov built as a struct
	// literal samples like one from NewCFGCov. Its caches remember only
	// off-graph points and points this monitor has already put in the
	// exported sets, which never shrink, so Merge need not touch them.

	// clusters[gi] interns cluster gi's valuations.
	clusters []clusterCache
	// branches[id] holds branch id's control registers and last tuple.
	branches []branchCache
	// tuples holds the packed key of every tuple this monitor has put
	// in Tuples.
	tuples map[string]struct{}
	// prev[gi] is cluster gi's valuation at the last Sample or
	// SyncPosition, -1 after ResetPosition.
	prev []int32
	// key is the reused buffer packed keys are built in.
	key []byte

	events  [][2]int
	hasPrev bool
}

// clusterCache interns one cluster's control-register valuations by
// their exact packed aval/bval words. The key is exact, not a hash: a
// collision would merge two valuations and silently drop coverage. A
// valuation's node key is rendered for its ByKey lookup once, on its
// first sighting.
type clusterCache struct {
	regs []int
	// last holds the words of regs at the last sighting, which was
	// valuation lastVal (-1 before the first): a cycle that leaves the
	// cluster unchanged costs a word compare and no lookup.
	last    []uint64
	lastVal int32
	ids     map[string]int32 // packed words -> index into vals
	vals    []valuation
	// trans holds every (from, to) pair of static valuations, from !=
	// to, whose transition has been resolved against the static edges.
	trans map[[2]int32]struct{}
}

// valuation is one interned cluster valuation.
type valuation struct {
	node int // static node ID, -1 off-graph
	self int // static self-loop edge of node, -1 none
	// recorded is set once a Sample has seen the valuation, and its
	// node, if any, is in NodesSeen (SyncPosition interns a valuation
	// without recording it); selfRecorded once self is in EdgesSeen.
	recorded, selfRecorded bool
	// succ memoizes up to maxSucc recorded transitions out of this
	// valuation: succ[i] is a destination valuation and succWords[i*n:]
	// its n cluster words. Both ends of a memoized transition are
	// recorded, so a hit skips every lookup.
	succ      []int32
	succWords []uint64
}

// maxSucc caps a valuation's successor memo; transitions past it take
// the map path.
const maxSucc = 4

// successor returns the memoized successor whose cluster words are
// words, or -1.
func (v *valuation) successor(words []uint64) int32 {
	n := len(words)
	for i, id := range v.succ {
		if slices.Equal(v.succWords[i*n:(i+1)*n], words) {
			return id
		}
	}
	return -1
}

// branchCache is one branch's control registers and the (arm, words)
// of its last interaction tuple, so a branch that repeats its last
// tuple costs a word compare and no lookup.
type branchCache struct {
	regs []int
	last []uint64
	arm  int // -1 before the first tuple
}

// NewCFGCov builds the SymbFuzz coverage monitor over a clustered CFG.
func NewCFGCov(p *cfg.Partition) *CFGCov {
	c := &CFGCov{
		P:         p,
		NodesSeen: make([]map[int]bool, len(p.Graphs)),
		EdgesSeen: make([]map[int]bool, len(p.Graphs)),
		Tuples:    map[string]bool{},
	}
	for i := range p.Graphs {
		c.NodesSeen[i] = map[int]bool{}
		c.EdgesSeen[i] = map[int]bool{}
	}
	return c
}

// initSampling builds the sampling state on first use.
func (c *CFGCov) initSampling() {
	if c.clusters != nil {
		return
	}
	p := c.P
	d := p.Design
	c.clusters = make([]clusterCache, len(p.Graphs))
	c.prev = make([]int32, len(p.Graphs))
	ctrl := map[int]bool{}
	for gi, g := range p.Graphs {
		cc := &c.clusters[gi]
		for _, cr := range g.Regs {
			ctrl[cr.Sig.Index] = true
			cc.regs = append(cc.regs, cr.Sig.Index)
		}
		cc.last = make([]uint64, planeWords(d, cc.regs))
		cc.lastVal = -1
		cc.ids = map[string]int32{}
		cc.trans = map[[2]int32]struct{}{}
		c.prev[gi] = -1
	}
	c.branches = make([]branchCache, d.Branches)
	for i := range c.branches {
		c.branches[i].arm = -1
	}
	for _, bi := range d.BranchInfo {
		bc := &c.branches[bi.ID]
		for _, s := range bi.CondSignals {
			if ctrl[s] {
				bc.regs = append(bc.regs, s)
			}
		}
		bc.last = make([]uint64, planeWords(d, bc.regs))
	}
	c.tuples = map[string]struct{}{}
}

// planeWords is the number of aval plus bval words of the signals.
func planeWords(d *elab.Design, sigs []int) int {
	n := 0
	for _, s := range sigs {
		n += 2 * ((d.Signals[s].Width + 63) / 64)
	}
	return n
}

// loadWords copies the current words of sigs into last, each signal's
// aval words then its bval words, and reports whether any changed.
func loadWords(s sim.DUV, sigs []int, last []uint64) bool {
	changed := false
	off := 0
	for _, sig := range sigs {
		a, b := s.Words(sig)
		for _, w := range a {
			if last[off] != w {
				last[off] = w
				changed = true
			}
			off++
		}
		for _, w := range b {
			if last[off] != w {
				last[off] = w
				changed = true
			}
			off++
		}
	}
	return changed
}

// appendKey appends words to a packed key as uvarints. A register
// list's word count is fixed, so two keys built from the same list are
// equal iff the words are.
func appendKey(k []byte, words []uint64) []byte {
	for _, w := range words {
		k = binary.AppendUvarint(k, w)
	}
	return k
}

// Name implements Monitor.
func (c *CFGCov) Name() string { return "symbfuzz-cfg" }

// Branch implements Monitor. The event buffer is hard-capped at
// maxEventCap per drain window; events past the cap are dropped and
// counted in Dropped rather than silently discarded, so the engine can
// surface a cov_events_dropped metric and warn.
func (c *CFGCov) Branch(id, arm int) {
	if len(c.events) >= maxEventCap {
		c.Dropped++
		return
	}
	c.events = append(c.events, [2]int{id, arm})
}

// maxEventCap bounds the branch-event buffer. A cycle with an
// unusually deep branch cascade (or a burst of cycles before a Sample)
// would otherwise balloon the buffer; capping it keeps a long
// campaign's footprint proportional to a typical cycle instead of its
// worst one. Overflow is counted, not silent (see Branch/Dropped).
const maxEventCap = 4096

// EventCap exposes the branch-event buffer cap (engine warnings).
const EventCap = maxEventCap

// drainEvents empties the event buffer, releasing oversized backing
// arrays instead of retaining them for the rest of the run.
func (c *CFGCov) drainEvents() {
	if cap(c.events) > maxEventCap {
		c.events = nil
		return
	}
	c.events = c.events[:0]
}

// nodeKeyOf renders a cluster's current control-register valuation.
func nodeKeyOf(g *cfg.Graph, s sim.DUV) string {
	key := ""
	for _, cr := range g.Regs {
		key += s.Get(cr.Sig.Index).BitString() + "|"
	}
	return key
}

// intern returns the index of the valuation whose words loadWords just
// put in cluster gi's last; changed is what loadWords returned. A new
// valuation's node key is rendered and resolved here.
func (c *CFGCov) intern(gi int, s sim.DUV, changed bool) int32 {
	cc := &c.clusters[gi]
	if !changed && cc.lastVal >= 0 {
		return cc.lastVal
	}
	c.key = appendKey(c.key[:0], cc.last)
	id, ok := cc.ids[string(c.key)]
	if !ok {
		g := c.P.Graphs[gi]
		v := valuation{node: -1, self: -1}
		if n, ok := g.ByKey[canonKey(nodeKeyOf(g, s))]; ok {
			v.node = n
			v.self = edgeBetween(g, n, n)
		}
		id = int32(len(cc.vals))
		cc.vals = append(cc.vals, v)
		cc.ids[string(c.key)] = id
	}
	cc.lastVal = id
	return id
}

// edgeBetween returns the first static edge from node from to node to,
// or -1.
func edgeBetween(g *cfg.Graph, from, to int) int {
	for _, eid := range g.Nodes[from].Out {
		if g.Edges[eid].To == to {
			return eid
		}
	}
	return -1
}

// Sample implements Monitor: map the cycle onto every cluster graph
// (Alg. 1 l.9) and record the interaction tuples.
func (c *CFGCov) Sample(s sim.DUV) {
	c.initSampling()
	for gi := range c.P.Graphs {
		cc := &c.clusters[gi]
		changed := loadWords(s, cc.regs, cc.last)
		if changed && c.hasPrev {
			if vi := cc.vals[c.prev[gi]].successor(cc.last); vi >= 0 {
				cc.lastVal, c.prev[gi] = vi, vi
				continue
			}
		}
		// Unchanged words still land here: SyncPosition may have interned
		// this valuation without recording it or its self-loop.
		vi := c.intern(gi, s, changed)
		v := &cc.vals[vi]
		if !v.recorded {
			v.recorded = true
			if v.node >= 0 {
				c.NodesSeen[gi][v.node] = true
			}
		}
		if c.hasPrev {
			if pi := c.prev[gi]; pi != vi {
				c.transition(gi, pi, vi)
			} else if v.self >= 0 && !v.selfRecorded {
				v.selfRecorded = true
				c.EdgesSeen[gi][v.self] = true
			}
		}
		c.prev[gi] = vi
	}
	// Interaction tuples: each branch arm exercised this cycle paired
	// with the valuations of the control registers the branch reads.
	for _, ev := range c.events {
		c.tuple(s, ev[0], ev[1])
	}
	c.drainEvents()
	c.hasPrev = true
}

// transition records cluster gi's move between two distinct
// valuations: the static edge between their nodes, if both are static
// and there is one. The cluster's last words are to's, and the move
// joins from's successor memo while it has room.
func (c *CFGCov) transition(gi int, from, to int32) {
	cc := &c.clusters[gi]
	f := &cc.vals[from]
	if len(f.succ) < maxSucc {
		f.succ = append(f.succ, to)
		f.succWords = append(f.succWords, cc.last...)
	}
	fn, tn := f.node, cc.vals[to].node
	if fn < 0 || tn < 0 {
		return
	}
	pair := [2]int32{from, to}
	if _, ok := cc.trans[pair]; ok {
		return
	}
	cc.trans[pair] = struct{}{}
	if eid := edgeBetween(c.P.Graphs[gi], fn, tn); eid >= 0 {
		c.EdgesSeen[gi][eid] = true
	}
}

// tuple records the interaction tuple of branch id's arm: the arm
// paired with the current words of the control registers the branch
// reads, rendered into Tuples on its first sighting.
func (c *CFGCov) tuple(s sim.DUV, id, arm int) {
	var regs []int
	k := binary.AppendUvarint(c.key[:0], uint64(id))
	k = binary.AppendUvarint(k, uint64(arm))
	if id < len(c.branches) {
		bc := &c.branches[id]
		if !loadWords(s, bc.regs, bc.last) && bc.arm == arm {
			return
		}
		bc.arm = arm
		regs = bc.regs
		k = appendKey(k, bc.last)
	}
	c.key = k
	if _, ok := c.tuples[string(k)]; ok {
		return
	}
	c.tuples[string(k)] = struct{}{}
	tuple := fmt.Sprintf("b%d.%d", id, arm)
	for _, ridx := range regs {
		tuple += "|" + s.Get(ridx).BitString()
	}
	c.Tuples[tuple] = true
}

// canonKey maps a four-state key to the graph's canonical (X->0) key.
func canonKey(k string) string {
	out := []byte(k)
	for i, ch := range out {
		if ch == 'x' || ch == 'z' {
			out[i] = '0'
		}
	}
	return string(out)
}

// Points implements Monitor: interaction tuples plus covered static
// nodes and edges.
func (c *CFGCov) Points() int {
	n := len(c.Tuples)
	for i := range c.P.Graphs {
		n += len(c.EdgesSeen[i]) + len(c.NodesSeen[i])
	}
	return n
}

// EdgeCoverage returns (covered, total) static edges across clusters.
func (c *CFGCov) EdgeCoverage() (int, int) {
	cov, tot := 0, 0
	for i, g := range c.P.Graphs {
		cov += len(c.EdgesSeen[i])
		tot += len(g.Edges)
	}
	return cov, tot
}

// NodeCoverage returns (covered, total) static nodes across clusters.
func (c *CFGCov) NodeCoverage() (int, int) {
	cov, tot := 0, 0
	for i, g := range c.P.Graphs {
		cov += len(c.NodesSeen[i])
		tot += len(g.Nodes)
	}
	return cov, tot
}

// AllEdgesCovered reports Algorithm 1's termination condition: every
// static edge of every cluster exercised at least once.
func (c *CFGCov) AllEdgesCovered() bool {
	covered, total := c.EdgeCoverage()
	return total > 0 && covered >= total
}

// Merge unions another monitor's observed coverage into c. Both
// monitors must watch isomorphic partitions (the same design built with
// the same options): static hits are matched positionally by (cluster,
// ID), which holds because partition construction is deterministic.
//
// Merging is a set union — idempotent and commutative — so an edge
// covered both locally and globally counts exactly once and repeated
// publishes of the same monitor are safe: Merge(a, a) leaves a
// unchanged, and Points never double-counts. Off-graph observations are
// not coverage and have nothing to merge. The Dropped counter and the
// position-tracking state (prev, the event buffer) are local simulation
// artifacts, not coverage, and are deliberately untouched.
// Merge must not run concurrently with either monitor's Sample.
func (c *CFGCov) Merge(o *CFGCov) {
	if o == nil {
		return
	}
	for gi := range c.NodesSeen {
		if gi >= len(o.NodesSeen) {
			break
		}
		for id := range o.NodesSeen[gi] {
			c.NodesSeen[gi][id] = true
		}
		for id := range o.EdgesSeen[gi] {
			c.EdgesSeen[gi][id] = true
		}
	}
	for k := range o.Tuples {
		c.Tuples[k] = true
	}
}

// PrevNode returns the last mapped node of cluster gi (-1 off-graph).
func (c *CFGCov) PrevNode(gi int) int {
	if gi < 0 || gi >= len(c.prev) || c.prev[gi] < 0 {
		return -1
	}
	return c.clusters[gi].vals[c.prev[gi]].node
}

// EdgeSeen reports whether cluster gi's edge eid has been exercised.
func (c *CFGCov) EdgeSeen(gi, eid int) bool { return c.EdgesSeen[gi][eid] }

// ResetPosition clears the previous-node tracking after a rollback so
// the rollback jump is not recorded as a spurious edge.
func (c *CFGCov) ResetPosition() {
	c.hasPrev = false
	for i := range c.prev {
		c.prev[i] = -1
	}
	c.drainEvents()
}

// SyncPosition re-primes the position tracking to the simulator's
// current state after a checkpoint restore, so the first transition out
// of the restored state is credited as an edge without recording the
// rollback jump itself.
func (c *CFGCov) SyncPosition(s sim.DUV) {
	c.initSampling()
	for gi := range c.P.Graphs {
		cc := &c.clusters[gi]
		c.prev[gi] = c.intern(gi, s, loadWords(s, cc.regs, cc.last))
	}
	c.hasPrev = true
	c.drainEvents()
}

// ---- RFuzz mux coverage ----

// MuxCov counts distinct (branch, arm) pairs: the FPGA mux-select
// coverage of RFuzz.
type MuxCov struct {
	Seen  map[[2]int]bool
	total int
}

// NewMuxCov builds the monitor; total arms come from the design's
// branch metadata.
func NewMuxCov(totalArms int) *MuxCov {
	return &MuxCov{Seen: map[[2]int]bool{}, total: totalArms}
}

// Name implements Monitor.
func (m *MuxCov) Name() string { return "rfuzz-mux" }

// Branch implements Monitor.
func (m *MuxCov) Branch(id, arm int) { m.Seen[[2]int{id, arm}] = true }

// Sample implements Monitor (mux coverage needs no cycle sampling).
func (m *MuxCov) Sample(sim.DUV) {}

// Points implements Monitor.
func (m *MuxCov) Points() int { return len(m.Seen) }

// Total returns the total arm population.
func (m *MuxCov) Total() int { return m.total }

// ---- DifuzzRTL register coverage ----

// RegCov tracks, per control register, the set of distinct values the
// register has held — DifuzzRTL's per-register coverage maps. Keeping
// the maps per register (instead of hashing the joint valuation) is
// what gives the tool a usable gradient on multi-IP designs: progress
// on one FSM's counter registers as new coverage regardless of what the
// other IPs are doing.
type RegCov struct {
	Regs []int // signal indices
	Seen []map[string]bool
}

// NewRegCov builds the monitor over the given control registers.
func NewRegCov(regs []int) *RegCov {
	seen := make([]map[string]bool, len(regs))
	for i := range seen {
		seen[i] = map[string]bool{}
	}
	return &RegCov{Regs: regs, Seen: seen}
}

// Name implements Monitor.
func (r *RegCov) Name() string { return "difuzzrtl-reg" }

// Branch implements Monitor (unused by this model).
func (r *RegCov) Branch(int, int) {}

// Sample implements Monitor.
func (r *RegCov) Sample(s sim.DUV) {
	for i, idx := range r.Regs {
		r.Seen[i][s.Get(idx).Key()] = true
	}
}

// Points implements Monitor: total distinct values across registers.
func (r *RegCov) Points() int {
	n := 0
	for _, m := range r.Seen {
		n += len(m)
	}
	return n
}

// ---- HWFP / AFL edge-hash coverage ----

// EdgeHashCov hashes consecutive branch events AFL-style (prev XOR cur
// into a bounded bitmap), the software-fuzzer feedback HWFP inherits.
type EdgeHashCov struct {
	Map  []bool
	prev int
	hits int
}

// NewEdgeHashCov builds a monitor with an AFL-style 64k bitmap.
func NewEdgeHashCov() *EdgeHashCov {
	return &EdgeHashCov{Map: make([]bool, 1<<16)}
}

// Name implements Monitor.
func (e *EdgeHashCov) Name() string { return "hwfp-edgehash" }

// Branch implements Monitor.
func (e *EdgeHashCov) Branch(id, arm int) {
	cur := (id*7 + arm) & 0xFFFF
	slot := (e.prev ^ cur) & 0xFFFF
	if !e.Map[slot] {
		e.Map[slot] = true
		e.hits++
	}
	e.prev = cur >> 1
}

// Sample implements Monitor.
func (e *EdgeHashCov) Sample(sim.DUV) { e.prev = 0 }

// Points implements Monitor.
func (e *EdgeHashCov) Points() int { return e.hits }

// ---- composite ----

// Multi fans a single tracer/sampler out to several monitors, so a
// fuzzer's own feedback model and the evaluation's reference metric can
// observe the same run.
type Multi struct {
	Monitors []Monitor
}

// NewMulti bundles monitors.
func NewMulti(ms ...Monitor) *Multi { return &Multi{Monitors: ms} }

// Name implements Monitor.
func (m *Multi) Name() string { return "multi" }

// Branch implements Monitor.
func (m *Multi) Branch(id, arm int) {
	for _, mm := range m.Monitors {
		mm.Branch(id, arm)
	}
}

// Sample implements Monitor.
func (m *Multi) Sample(s sim.DUV) {
	for _, mm := range m.Monitors {
		mm.Sample(s)
	}
}

// Points implements Monitor: the first monitor is the primary feedback.
func (m *Multi) Points() int {
	if len(m.Monitors) == 0 {
		return 0
	}
	return m.Monitors[0].Points()
}
