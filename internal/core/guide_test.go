package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cfg"
	"repro/internal/designs"
	"repro/internal/logic"
)

// rankedEdgesRef is the original ranking: a stable sort whose
// comparator recounts both edges' unlocks and recomputes both Hamming
// distances on every comparison.
func rankedEdgesRef(e *Engine, gi, node int) []cfg.Edge {
	g := e.part.Graphs[gi]
	uncovered := e.uncoveredFrom(gi, node, true)
	cur := g.Nodes[node]
	sort.SliceStable(uncovered, func(i, j int) bool {
		ui := len(e.uncoveredFrom(gi, uncovered[i].To, false))
		uj := len(e.uncoveredFrom(gi, uncovered[j].To, false))
		if ui != uj {
			return ui > uj
		}
		return hammingRef(cur, g.Nodes[uncovered[i].To]) < hammingRef(cur, g.Nodes[uncovered[j].To])
	})
	return uncovered
}

// hammingRef counts the 1 bits of each shared register's BV.Xor.
func hammingRef(a, b *cfg.Node) int {
	d := 0
	for idx, av := range a.Vals {
		bv, ok := b.Vals[idx]
		if !ok {
			continue
		}
		x := av.Xor(bv)
		for i := 0; i < x.Width(); i++ {
			if x.Bit(i) == logic.L1 {
				d++
			}
		}
	}
	return d
}

// findTargetRef is the original map-keyed backward search.
func findTargetRef(e *Engine, cks map[[2]int]*checkpoint, gi, cur int) *checkpoint {
	g := e.part.Graphs[gi]
	visited := map[int]bool{}
	var queue []int
	if cur >= 0 {
		queue = append(queue, cur)
		visited[cur] = true
	} else {
		for key := range cks {
			if key[0] == gi {
				queue = append(queue, key[1])
				visited[key[1]] = true
			}
		}
		sort.Ints(queue)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if ck, ok := cks[[2]int{gi, n}]; ok {
			if len(e.uncoveredFrom(gi, n, false)) > 0 {
				return ck
			}
		}
		for _, eid := range g.Nodes[n].In {
			from := g.Edges[eid].From
			if !visited[from] {
				visited[from] = true
				queue = append(queue, from)
			}
		}
	}
	var keys [][2]int
	for key := range cks {
		if key[0] == gi {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i][1] < keys[j][1] })
	for _, key := range keys {
		if len(e.uncoveredFrom(gi, key[1], false)) > 0 {
			return cks[key]
		}
	}
	return nil
}

// guideSetup is one guidance-state configuration of the equivalence
// sweep.
type guideSetup struct {
	name     string
	pruned   bool
	shard    bool
	shardAll bool
}

var guideSetups = []guideSetup{
	{"plain", false, false, true},
	{"pruned", true, false, true},
	{"shard", false, true, false},
	{"shard_all", false, true, true},
	{"pruned_shard", true, true, false},
}

// applySetup puts a freshly built engine into a randomized guidance
// state: about half the static edges seen, and under pruning about a
// fifth of the nodes marked unreachable (the SoC's lint facts prune
// none, so the sweep plants its own).
func applySetup(e *Engine, s guideSetup, rng *rand.Rand) {
	e.pruned = nil
	if s.pruned {
		e.pruned = make([]map[int]bool, len(e.part.Graphs))
	}
	for gi, g := range e.part.Graphs {
		clear(e.cover.EdgesSeen[gi])
		for _, edge := range g.Edges {
			if rng.Intn(2) == 0 {
				e.cover.EdgesSeen[gi][edge.ID] = true
			}
		}
		if s.pruned {
			e.pruned[gi] = map[int]bool{}
			for _, n := range g.Nodes {
				if rng.Intn(5) == 0 {
					e.pruned[gi][n.ID] = true
				}
			}
		}
	}
	e.cfgc.Shard = ShardSpec{}
	if s.shard {
		e.cfgc.Shard = ShardSpec{Rank: 1, Workers: 3}
	}
	e.shardAll = s.shardAll
}

func socEngine(t testing.TB) *Engine {
	t.Helper()
	bm := designs.OpenTitanMini(nil)
	d, err := bm.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d, bm.Properties, Config{Interval: 100, Threshold: 2, Seed: 1,
		UseSnapshots: true, SimBackend: "compiled"})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestGuidanceMatchesReference checks, over every node of every
// opentitan_mini cluster graph and under each guidance setup, that the
// precomputed-key ranking orders edges exactly like the original
// comparator and that countUncovered agrees with uncoveredFrom.
func TestGuidanceMatchesReference(t *testing.T) {
	e := socEngine(t)
	rng := rand.New(rand.NewSource(3))
	for _, s := range guideSetups {
		for round := 0; round < 2; round++ {
			applySetup(e, s, rng)
			ranked := 0
			for gi, g := range e.part.Graphs {
				for _, n := range g.Nodes {
					if got, want := e.countUncovered(gi, n.ID), len(e.uncoveredFrom(gi, n.ID, false)); got != want {
						t.Fatalf("%s: graph %d node %d: countUncovered %d, uncoveredFrom %d", s.name, gi, n.ID, got, want)
					}
					got, want := e.rankedEdges(gi, n.ID), rankedEdgesRef(e, gi, n.ID)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: graph %d node %d: ranked %v, reference %v", s.name, gi, n.ID, got, want)
					}
					if len(got) > 1 {
						ranked++
					}
				}
			}
			if ranked == 0 {
				t.Fatalf("%s: no node had two edges to rank", s.name)
			}
		}
	}
}

// TestFindTargetMatchesReference records random checkpoints in the
// per-cluster table and checks findTarget against the map-keyed search
// from every start node, and nthCheckpoint against the sorted keys.
func TestFindTargetMatchesReference(t *testing.T) {
	e := socEngine(t)
	rng := rand.New(rand.NewSource(5))
	ref := map[[2]int]*checkpoint{}
	for gi, g := range e.part.Graphs {
		for _, n := range g.Nodes {
			if rng.Intn(4) == 0 {
				ck := &checkpoint{graph: gi, node: n.ID}
				e.cks[gi].add(ck)
				e.ckCount++
				ref[[2]int{gi, n.ID}] = ck
			}
		}
	}
	// Start one cluster's visit stamps at the wrap-around point.
	e.cks[0].gen = math.MaxUint32 - 1
	for _, s := range guideSetups {
		applySetup(e, s, rng)
		found := 0
		for gi, g := range e.part.Graphs {
			for cur := -1; cur < len(g.Nodes); cur++ {
				got, want := e.findTarget(gi, cur), findTargetRef(e, ref, gi, cur)
				if got != want {
					t.Fatalf("%s: graph %d from %d: findTarget %v, reference %v", s.name, gi, cur, got, want)
				}
				if got != nil {
					found++
				}
			}
		}
		if found == 0 {
			t.Fatalf("%s: no search found a checkpoint", s.name)
		}
	}
	keys := make([][2]int, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	if e.ckCount != len(keys) {
		t.Fatalf("ckCount %d, want %d", e.ckCount, len(keys))
	}
	for k, key := range keys {
		if got := e.nthCheckpoint(k); got != ref[key] {
			t.Fatalf("nthCheckpoint(%d) = %v, want %v", k, got, ref[key])
		}
	}
}

// randomBV draws a four-state vector, about a quarter of its bits X or Z.
func randomBV(width int, rng *rand.Rand) logic.BV {
	v := logic.Zero(width)
	for i := 0; i < width; i++ {
		switch rng.Intn(8) {
		case 0:
			v = v.WithBit(i, logic.LX)
		case 1:
			v = v.WithBit(i, logic.LZ)
		case 2, 3, 4:
			v = v.WithBit(i, logic.L1)
		}
	}
	return v
}

// TestHammingMatchesXor checks the packed-word Hamming distance against
// the BV.Xor bit count on valuations with X and Z bits, multi-word
// widths and registers missing from one side.
func TestHammingMatchesXor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		a := &cfg.Node{Vals: map[int]logic.BV{}}
		b := &cfg.Node{Vals: map[int]logic.BV{}}
		for idx := 0; idx < 6; idx++ {
			w := 1 + rng.Intn(140)
			if rng.Intn(6) > 0 {
				a.Vals[idx] = randomBV(w, rng)
			}
			if rng.Intn(6) > 0 {
				b.Vals[idx] = randomBV(w, rng)
			}
		}
		if got, want := hamming(a, b), hammingRef(a, b); got != want {
			t.Fatalf("trial %d: hamming %d, BV.Xor count %d", trial, got, want)
		}
	}
}

// TestGuidanceQueriesDoNotAllocate pins the count-only query and the
// Hamming distance at zero allocations.
func TestGuidanceQueriesDoNotAllocate(t *testing.T) {
	e := socEngine(t)
	applySetup(e, guideSetups[len(guideSetups)-1], rand.New(rand.NewSource(1)))
	g := e.part.Graphs[0]
	a, b := g.Nodes[0], g.Nodes[len(g.Nodes)-1]
	if n := testing.AllocsPerRun(100, func() {
		for _, node := range g.Nodes {
			e.countUncovered(0, node.ID)
		}
	}); n != 0 {
		t.Errorf("countUncovered allocates %.1f times per sweep", n)
	}
	if n := testing.AllocsPerRun(100, func() { hamming(a, b) }); n != 0 {
		t.Errorf("hamming allocates %.1f times", n)
	}
}
