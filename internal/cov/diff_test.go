package cov

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cfg"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/sim"
)

// refCov is the reference CFGCov sampling is compared against: it
// renders every node key and tuple string on every cycle and interns
// nothing. Its static sets and tuples live in a CFGCov that never
// samples; dynNodes and dynEdges hold the off-graph valuations and
// transitions it saw, which CFGCov does not keep.
type refCov struct {
	c                  *CFGCov
	dynNodes, dynEdges map[string]bool
	branchRegs         [][]int
	prevKey            []string
	prevNode           []int
	hasPrev            bool
}

func newRefCov(p *cfg.Partition) *refCov {
	r := &refCov{
		c:          NewCFGCov(p),
		dynNodes:   map[string]bool{},
		dynEdges:   map[string]bool{},
		branchRegs: make([][]int, p.Design.Branches),
		prevKey:    make([]string, len(p.Graphs)),
		prevNode:   make([]int, len(p.Graphs)),
	}
	ctrl := map[int]bool{}
	for _, g := range p.Graphs {
		for _, cr := range g.Regs {
			ctrl[cr.Sig.Index] = true
		}
	}
	for _, bi := range p.Design.BranchInfo {
		for _, s := range bi.CondSignals {
			if ctrl[s] {
				r.branchRegs[bi.ID] = append(r.branchRegs[bi.ID], s)
			}
		}
	}
	r.reset()
	return r
}

func (r *refCov) sample(s sim.DUV, events [][2]int) {
	c := r.c
	for gi, g := range c.P.Graphs {
		key := nodeKeyOf(g, s)
		nid := -1
		if id, ok := g.ByKey[canonKey(key)]; ok {
			nid = id
			c.NodesSeen[gi][id] = true
		} else {
			r.dynNodes[fmt.Sprintf("g%d:%s", gi, key)] = true
		}
		if r.hasPrev {
			covered := false
			if r.prevNode[gi] >= 0 && nid >= 0 {
				for _, eid := range g.Nodes[r.prevNode[gi]].Out {
					if g.Edges[eid].To == nid {
						c.EdgesSeen[gi][eid] = true
						covered = true
						break
					}
				}
			}
			if !covered && key != r.prevKey[gi] {
				r.dynEdges[fmt.Sprintf("g%d:%s>%s", gi, r.prevKey[gi], key)] = true
			}
		}
		r.prevKey[gi] = key
		r.prevNode[gi] = nid
	}
	for _, ev := range events {
		tuple := fmt.Sprintf("b%d.%d", ev[0], ev[1])
		for _, ridx := range r.branchRegs[ev[0]] {
			tuple += "|" + s.Get(ridx).BitString()
		}
		c.Tuples[tuple] = true
	}
	r.hasPrev = true
}

func (r *refCov) sync(s sim.DUV) {
	for gi, g := range r.c.P.Graphs {
		key := nodeKeyOf(g, s)
		r.prevKey[gi] = key
		r.prevNode[gi] = -1
		if id, ok := g.ByKey[canonKey(key)]; ok {
			r.prevNode[gi] = id
		}
	}
	r.hasPrev = true
}

func (r *refCov) reset() {
	r.hasPrev = false
	for i := range r.prevNode {
		r.prevNode[i] = -1
		r.prevKey[i] = ""
	}
}

// fakeDUV serves signal values from word planes the test writes
// directly. It provides only the reads coverage sampling makes.
type fakeDUV struct {
	sim.DUV
	d    *elab.Design
	a, b [][]uint64
}

func newFakeDUV(d *elab.Design) *fakeDUV {
	f := &fakeDUV{d: d, a: make([][]uint64, len(d.Signals)), b: make([][]uint64, len(d.Signals))}
	for i, sig := range d.Signals {
		f.a[i] = make([]uint64, (sig.Width+63)/64)
		f.b[i] = make([]uint64, (sig.Width+63)/64)
	}
	return f
}

func (f *fakeDUV) set(sig int, v logic.BV) {
	a, b := v.Words()
	copy(f.a[sig], a)
	copy(f.b[sig], b)
}

func (f *fakeDUV) Words(sig int) (a, b []uint64) { return f.a[sig], f.b[sig] }

func (f *fakeDUV) Get(sig int) logic.BV {
	return logic.FromWords(f.d.Signals[sig].Width, f.a[sig], f.b[sig])
}

// byteSrc hands out fuzz input one byte at a time, then zeros.
type byteSrc []byte

func (r *byteSrc) next() int {
	if len(*r) == 0 {
		return 0
	}
	x := (*r)[0]
	*r = (*r)[1:]
	return int(x)
}

// fourState builds a width-bit value, two input bits per bit, so X and
// Z appear as often as 0 and 1.
func (r *byteSrc) fourState(width int) logic.BV {
	bits := make([]logic.Bit, width)
	var cur int
	for i := range bits {
		if i%4 == 0 {
			cur = r.next()
		}
		bits[i] = logic.Bit(cur >> (2 * (i % 4)) & 3)
	}
	return logic.FromBits(bits...)
}

// covWalk decodes in into a walk over the clusters of p: each step
// resets or re-syncs the position, or moves a few clusters (to a
// node, along an edge, or by knocking one register to an arbitrary
// four-state value), raises branch events and samples. Every monitor
// and the reference (when non-nil) see the same walk, and PrevNode
// must agree with the reference after every step. A Sample that puts
// a cluster off-graph, by the reference, must add nothing to that
// cluster's static sets: neither the valuation nor the move onto it is
// static coverage.
func covWalk(t testing.TB, p *cfg.Partition, in []byte, ref *refCov, ms ...*CFGCov) {
	t.Helper()
	src := byteSrc(in)
	f := newFakeDUV(p.Design)
	cur := make([]int, len(p.Graphs))
	sizes := make([][]int, len(ms))
	for step := 0; len(src) > 0 && step < 4096; step++ {
		for i, m := range ms {
			sizes[i] = sizes[i][:0]
			for gi := 0; ref != nil && gi < len(p.Graphs); gi++ {
				sizes[i] = append(sizes[i], len(m.NodesSeen[gi])+len(m.EdgesSeen[gi]))
			}
		}
		op := src.next() % 16
		switch op {
		case 0:
			for _, m := range ms {
				m.ResetPosition()
			}
			if ref != nil {
				ref.reset()
			}
		case 1:
			for _, m := range ms {
				m.SyncPosition(f)
			}
			if ref != nil {
				ref.sync(f)
			}
		default:
			for k := src.next() % 3; k >= 0; k-- {
				gi := src.next() % len(p.Graphs)
				g := p.Graphs[gi]
				if len(g.Nodes) == 0 || len(g.Regs) == 0 {
					continue
				}
				switch src.next() % 4 {
				case 0:
					cur[gi] = src.next() % len(g.Nodes)
				case 1:
					if out := g.Nodes[cur[gi]].Out; len(out) > 0 {
						cur[gi] = g.Edges[out[src.next()%len(out)]].To
					}
				case 2:
					cr := g.Regs[src.next()%len(g.Regs)]
					f.set(cr.Sig.Index, src.fourState(cr.Sig.Width))
					continue
				case 3:
					continue
				}
				for _, cr := range g.Regs {
					if v, ok := g.Nodes[cur[gi]].Vals[cr.Sig.Index]; ok {
						f.set(cr.Sig.Index, v)
					}
				}
			}
			var events [][2]int
			for n := src.next() % 6; n > 0; n-- {
				bi := p.Design.BranchInfo[src.next()%len(p.Design.BranchInfo)]
				events = append(events, [2]int{bi.ID, src.next() % bi.Arms})
			}
			for _, m := range ms {
				for _, ev := range events {
					m.Branch(ev[0], ev[1])
				}
				m.Sample(f)
			}
			if ref != nil {
				ref.sample(f, events)
			}
		}
		if ref == nil {
			continue
		}
		for i, m := range ms {
			for gi := range p.Graphs {
				if got, want := m.PrevNode(gi), ref.prevNode[gi]; got != want {
					t.Fatalf("step %d: monitor %d PrevNode(%d) = %d, want %d", step, i, gi, got, want)
				}
				if op > 1 && ref.prevNode[gi] < 0 && len(m.NodesSeen[gi])+len(m.EdgesSeen[gi]) != sizes[i][gi] {
					t.Fatalf("step %d: monitor %d recorded static coverage for off-graph cluster %d", step, i, gi)
				}
			}
		}
	}
}

type covSets struct {
	Nodes, Edges []map[int]bool
	Tuples       map[string]bool
	Points       int
}

func setsOf(c *CFGCov) covSets {
	return covSets{c.NodesSeen, c.EdgesSeen, c.Tuples, c.Points()}
}

// diffFixture is opentitan_mini's partition plus a monitor that
// sampled a fixed walk, which the merged-into monitor starts from.
type diffFixture struct {
	p   *cfg.Partition
	pre *CFGCov
}

var (
	diffOnce sync.Once
	diffFix  diffFixture
	diffErr  error
)

func loadDiffFixture(t testing.TB) diffFixture {
	t.Helper()
	diffOnce.Do(func() {
		b, ok := designs.FindBenchmark("opentitan_mini")
		if !ok {
			diffErr = fmt.Errorf("opentitan_mini missing")
			return
		}
		d, err := b.Elaborate()
		if err != nil {
			diffErr = err
			return
		}
		diffFix.p, diffErr = buildPartition(d)
		if diffErr != nil {
			return
		}
		diffFix.pre = NewCFGCov(diffFix.p)
		covWalk(t, diffFix.p, randomBytes(99, 2048), nil, diffFix.pre)
	})
	if diffErr != nil {
		t.Fatal(diffErr)
	}
	return diffFix
}

// buildPartition resets a design on the interpreter and builds its
// clustered CFG with the reset input pinned deasserted.
func buildPartition(d *elab.Design) (*cfg.Partition, error) {
	s, err := sim.New(d)
	if err != nil {
		return nil, err
	}
	info := sim.DetectClockReset(d)
	if err := s.ApplyReset(info, 2); err != nil {
		return nil, err
	}
	tr, err := cfg.BuildTransition(d)
	if err != nil {
		return nil, err
	}
	reset := map[int]logic.BV{}
	for _, cr := range cfg.ControlRegisters(d) {
		reset[cr.Sig.Index] = s.Get(cr.Sig.Index)
	}
	pin := map[string]logic.BV{}
	if info.Reset >= 0 {
		v := logic.Ones(1)
		if !info.ActiveLow {
			v = logic.Zero(1)
		}
		pin[d.Signals[info.Reset].Name] = v
	}
	return cfg.BuildPartition(d, tr, reset, cfg.Options{Pin: pin})
}

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// checkCovDiff runs one walk through a monitor from NewCFGCov, one
// built as a struct literal (as wire decode builds them) and one that
// had coverage merged in before its first Sample, and requires each
// to match the reference rendering. It returns the reference.
func checkCovDiff(t testing.TB, in []byte) *refCov {
	fx := loadDiffFixture(t)
	p := fx.p
	fresh := NewCFGCov(p)
	lit := &CFGCov{
		P:         p,
		NodesSeen: make([]map[int]bool, len(p.Graphs)),
		EdgesSeen: make([]map[int]bool, len(p.Graphs)),
		Tuples:    map[string]bool{},
	}
	for gi := range p.Graphs {
		lit.NodesSeen[gi] = map[int]bool{}
		lit.EdgesSeen[gi] = map[int]bool{}
	}
	merged := NewCFGCov(p)
	merged.Merge(fx.pre)
	ref := newRefCov(p)
	covWalk(t, p, in, ref, fresh, lit, merged)

	want := setsOf(ref.c)
	if !reflect.DeepEqual(setsOf(fresh), want) {
		t.Error("NewCFGCov monitor differs from the reference")
	}
	if !reflect.DeepEqual(setsOf(lit), want) {
		t.Error("struct-literal monitor differs from the reference")
	}
	union := NewCFGCov(p)
	union.Merge(ref.c)
	union.Merge(fx.pre)
	if !reflect.DeepEqual(setsOf(merged), setsOf(union)) {
		t.Error("merged-then-sampled monitor differs from reference ∪ merged coverage")
	}
	return ref
}

// syncThenSample is a covWalk that SyncPositions onto the initial,
// never-sampled valuations and then samples them unchanged (op 2 moves
// cluster 0 by "no move" and raises no events). That Sample must still
// record every node and self-loop: SyncPosition interns valuations
// without recording them.
var syncThenSample = []byte{1, 2, 0, 0, 3, 0}

// FuzzCFGCovDiff drives CFGCov's packed-word sampling and the
// render-every-cycle reference through the same arbitrary walk over
// opentitan_mini's clusters, with X and Z register values, branch
// events, ResetPosition and SyncPosition, and requires identical
// static sets, tuples and points, with no off-graph observation counted.
func FuzzCFGCovDiff(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(randomBytes(seed, 512))
	}
	f.Add(syncThenSample)
	f.Fuzz(func(t *testing.T, in []byte) {
		checkCovDiff(t, in)
	})
}

// TestCFGCovDiffWalkReachesEveryKind guards FuzzCFGCovDiff's seed
// walks against comparing empty sets: together they must cover static
// edges, tuples, and, by the reference, off-graph nodes and edges. It
// also runs the syncThenSample walk.
func TestCFGCovDiffWalkReachesEveryKind(t *testing.T) {
	edges, tuples, dynNodes, dynEdges := 0, 0, 0, 0
	walks := [][]byte{syncThenSample}
	for seed := int64(1); seed <= 3; seed++ {
		walks = append(walks, randomBytes(seed, 4096))
	}
	for _, walk := range walks {
		ref := checkCovDiff(t, walk)
		for _, m := range ref.c.EdgesSeen {
			edges += len(m)
		}
		tuples += len(ref.c.Tuples)
		dynNodes += len(ref.dynNodes)
		dynEdges += len(ref.dynEdges)
	}
	if edges == 0 || tuples == 0 || dynNodes == 0 || dynEdges == 0 {
		t.Fatalf("walks too narrow: %d static edges, %d tuples, %d dyn nodes, %d dyn edges",
			edges, tuples, dynNodes, dynEdges)
	}
}

// TestCFGCovSampleRevisitDoesNotAllocate pins the steady state: a
// cycle whose cluster valuations and tuples were all seen before
// allocates nothing.
func TestCFGCovSampleRevisitDoesNotAllocate(t *testing.T) {
	f := setup(t)
	c := NewCFGCov(f.g)
	drive(t, f, 1, 2, 3)
	allocs := testing.AllocsPerRun(100, func() {
		for _, bi := range f.d.BranchInfo {
			c.Branch(bi.ID, bi.Arms-1)
			c.Branch(bi.ID, 0)
		}
		c.Sample(f.s)
	})
	if allocs != 0 {
		t.Errorf("Sample on a revisited valuation allocates %.1f times", allocs)
	}
	if len(c.Tuples) == 0 || c.PrevNode(0) < 0 {
		t.Fatalf("sampling did not run: %d tuples, node %d", len(c.Tuples), c.PrevNode(0))
	}
}

// TestCFGCovOffGraphChurnDoesNotAllocate pins the off-graph path on
// opentitan_mini's comb-only u_rst cluster, whose static graph holds 32
// of its 512 valuations: once every valuation is interned and its
// successor memo is full, Samples that take off-graph transitions never
// seen before allocate nothing.
func TestCFGCovOffGraphChurnDoesNotAllocate(t *testing.T) {
	fx := loadDiffFixture(t)
	gi := slices.IndexFunc(fx.p.Graphs, func(g *cfg.Graph) bool {
		var names []string
		for _, cr := range g.Regs {
			names = append(names, cr.Sig.Name)
		}
		slices.Sort(names)
		return slices.Equal(names, []string{"u_rst.combo_en", "u_rst.key_combo", "u_rst.permit_mask"})
	})
	if gi < 0 {
		t.Fatal("no cluster of u_rst.key_combo, combo_en and permit_mask")
	}
	g := fx.p.Graphs[gi]
	f := newFakeDUV(fx.p.Design)
	n := 1
	for _, cr := range g.Regs {
		n <<= cr.Sig.Width
	}
	// put sets the cluster's registers to valuation v, packed LSB-first
	// in register order.
	put := func(v int) {
		for _, cr := range g.Regs {
			f.a[cr.Sig.Index][0] = uint64(v) & (1<<cr.Sig.Width - 1)
			v >>= cr.Sig.Width
		}
	}
	c := NewCFGCov(fx.p)
	// Every valuation moves to each of the next maxSucc valuations and
	// back, which interns it and fills its successor memo. The walk takes
	// only moves between valuations at most maxSucc apart.
	var off []int
	for v := 0; v < n; v++ {
		put(v)
		c.Sample(f)
		if c.PrevNode(gi) < 0 {
			off = append(off, v)
		}
		for k := 1; k <= maxSucc; k++ {
			put((v + k) % n)
			c.Sample(f)
			put(v)
			c.Sample(f)
		}
	}
	if len(g.Nodes) >= n || len(off) != n-len(g.Nodes) {
		t.Fatalf("%d of %d valuations off-graph with %d static nodes", len(off), n, len(g.Nodes))
	}
	static := len(c.NodesSeen[gi]) + len(c.EdgesSeen[gi])
	// Each run moves from an off-graph valuation u to u+n/2 and on to
	// the next run's u: new moves, each with an off-graph end.
	runs := 0
	allocs := testing.AllocsPerRun(100, func() {
		u := off[runs%len(off)]
		runs++
		put(u)
		c.Sample(f)
		put((u + n/2) % n)
		c.Sample(f)
	})
	if runs > len(off) {
		t.Fatalf("%d runs repeat moves: only %d off-graph valuations", runs, len(off))
	}
	if allocs != 0 {
		t.Errorf("Sample on a new off-graph transition allocates %.1f times", allocs)
	}
	if got := len(c.NodesSeen[gi]) + len(c.EdgesSeen[gi]); got != static {
		t.Errorf("off-graph moves changed static coverage: %d -> %d", static, got)
	}
}
