package par

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/designs"
	"repro/internal/obs"
)

// mailbox returns the buggy SCMI mailbox benchmark — small enough for
// quick campaigns, rich enough to exercise solving and bug detection.
func mailbox() *designs.Benchmark {
	return designs.IPBenchmark(designs.Mailbox(), true)
}

func testCoreConfig(seed int64) core.Config {
	return core.Config{
		Interval:              50,
		Threshold:             2,
		MaxVectors:            3000,
		Seed:                  seed,
		UseSnapshots:          true,
		ContinueAfterCoverage: true,
	}
}

// runTraced runs a campaign with a JSONL tracer attached and returns
// the report plus the raw trace lines.
func runTraced(t *testing.T, workers int, seed int64) (*Report, []string) {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	o := obs.New(obs.Options{Tracer: tr})
	b := mailbox()
	cc := testCoreConfig(seed)
	cc.Obs = o
	rep, err := Run(b.Elaborate, b.Properties, Config{Config: cc, Workers: workers})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("tracer close: %v", err)
	}
	return rep, strings.Split(strings.TrimSpace(buf.String()), "\n")
}

// normalizeReport strips the fields that legitimately vary across runs
// of the same seed set: wall-clock durations, and the hit/miss split of
// the shared plan cache (the sum is deterministic, the split depends on
// which worker solved a key first).
func normalizeReport(r *core.Report) core.Report {
	c := *r
	c.Timings.TotalNS = 0
	c.Timings.FuzzNS = 0
	c.Timings.SymbolicNS = 0
	c.Timings.RollbackNS = 0
	c.Timings.VCDNS = 0
	c.Timings.Solve.BlastNS = 0
	c.Timings.Solve.CDCLNS = 0
	c.SolveCacheHits += c.SolveCacheMisses
	c.SolveCacheMisses = 0
	return c
}

// normalizeTrace parses the JSONL lines, zeroes every wall-clock field
// plus the cache hit/miss attribution (which worker solved a shared
// key first is scheduling-dependent; only the solve itself is
// deterministic), re-serializes, and sorts — turning an
// interleaving-ordered stream into a comparable event multiset.
func normalizeTrace(t *testing.T, lines []string) []string {
	t.Helper()
	out := make([]string, 0, len(lines))
	for i, ln := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %d: %v", i+1, err)
		}
		ev.TNS, ev.DurNS, ev.BlastNS, ev.SolveNS = 0, 0, 0, 0
		ev.Cache, ev.OriginWorker, ev.OriginSpan = "", 0, ""
		b, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	sort.Strings(out)
	return out
}

// TestParallelDeterminism is the regression pinned by the issue: two
// 4-worker campaigns with identical seeds must produce identical merged
// coverage counts, identical per-worker reports, and identical trace
// event multisets, regardless of goroutine interleaving. CI runs this
// under -race, so it also doubles as the data-race probe.
func TestParallelDeterminism(t *testing.T) {
	repA, traceA := runTraced(t, 4, 7)
	repB, traceB := runTraced(t, 4, 7)

	if repA.Workers != 4 || len(repA.PerWorker) != 4 {
		t.Fatalf("want 4 workers, got %d (%d reports)", repA.Workers, len(repA.PerWorker))
	}
	if !reflect.DeepEqual(repA.Seeds, repB.Seeds) {
		t.Fatalf("seed vectors differ: %v vs %v", repA.Seeds, repB.Seeds)
	}
	ma, mb := normalizeReport(repA.Merged), normalizeReport(repB.Merged)
	if !reflect.DeepEqual(ma, mb) {
		t.Errorf("merged reports differ:\n%+v\n%+v", ma, mb)
	}
	for r := range repA.PerWorker {
		wa, wb := normalizeReport(repA.PerWorker[r]), normalizeReport(repB.PerWorker[r])
		if !reflect.DeepEqual(wa, wb) {
			t.Errorf("worker %d reports differ:\n%+v\n%+v", r, wa, wb)
		}
	}
	if hA, hB := repA.CacheHits+repA.CacheMisses, repB.CacheHits+repB.CacheMisses; hA != hB {
		t.Errorf("cache consultation totals differ: %d vs %d", hA, hB)
	}

	na, nb := normalizeTrace(t, traceA), normalizeTrace(t, traceB)
	if len(na) != len(nb) {
		t.Fatalf("trace lengths differ: %d vs %d events", len(na), len(nb))
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("trace multisets diverge at sorted index %d:\n%s\n%s", i, na[i], nb[i])
		}
	}

	// Both traces must also be schema-valid with four worker lanes.
	for i, lines := range [][]string{traceA, traceB} {
		sum, err := obs.ValidateTrace(strings.NewReader(strings.Join(lines, "\n")))
		if err != nil {
			t.Fatalf("campaign %d: trace invalid: %v", i, err)
		}
		if sum.Workers != 4 {
			t.Errorf("campaign %d: trace shows %d worker lanes, want 4", i, sum.Workers)
		}
	}
}

// TestSingleWorkerMatchesEngine pins the -workers 1 compatibility
// contract: a 1-worker campaign's trajectory is identical to a plain
// engine run with the same configuration (sharding and plan sharing are
// disabled, rank 0 keeps the base seed).
func TestSingleWorkerMatchesEngine(t *testing.T) {
	b := mailbox()

	d, err := b.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(d, b.Properties, testCoreConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	prep, err := Run(b.Elaborate, b.Properties, Config{Config: testCoreConfig(11), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if prep.Workers != 1 || len(prep.PerWorker) != 1 {
		t.Fatalf("want 1 worker, got %d", prep.Workers)
	}
	if prep.Seeds[0] != 11 {
		t.Fatalf("rank 0 must keep the base seed, got %d", prep.Seeds[0])
	}

	got, want := normalizeReport(prep.PerWorker[0]), normalizeReport(direct)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("1-worker campaign diverged from plain engine:\n%+v\n%+v", got, want)
	}
	// The merged view of one worker carries the same coverage totals
	// (its Curve is intentionally left to the live campaign curve).
	m := prep.Merged
	if m.FinalPoints != direct.FinalPoints || m.EdgesCovered != direct.EdgesCovered ||
		m.NodesCovered != direct.NodesCovered || m.Vectors != direct.Vectors ||
		len(m.Bugs) != len(direct.Bugs) {
		t.Errorf("merged totals diverged: %+v vs %+v", m, direct)
	}
}

// TestFrontierNoDoubleCount publishes the same local coverage twice
// (same worker, then a second worker that covered the same sets) and
// checks the global point counter only advances on genuinely-new
// inserts.
func TestFrontierNoDoubleCount(t *testing.T) {
	cv := &cov.CFGCov{
		NodesSeen: []map[int]bool{{0: true, 1: true, 2: true}},
		EdgesSeen: []map[int]bool{{0: true, 4: true}},
		Tuples:    map[string]bool{"a|b": true},
	}
	fr := NewFrontier(2, 0, nil)

	fr.Publish(0, cv, 100)
	if got := fr.points.Load(); got != 6 {
		t.Fatalf("first publish: points = %d, want 6 (3 nodes + 2 edges + 1 tuple)", got)
	}
	fr.Publish(0, cv, 150) // same worker republishes at the next boundary
	fr.Publish(1, cv, 120) // a second worker covered the identical sets
	if got := fr.points.Load(); got != 6 {
		t.Fatalf("republish double-counted: points = %d, want 6", got)
	}
	// The frontier has no fixed shape: a publish naming a cluster
	// graph it has not seen yet grows it.
	wide := &cov.CFGCov{
		NodesSeen: []map[int]bool{{0: true}, {7: true}},
		EdgesSeen: []map[int]bool{{}, {3: true}},
	}
	fr.Publish(1, wide, 130)
	if got := fr.points.Load(); got != 8 {
		t.Fatalf("publish into a new graph: points = %d, want 8", got)
	}
}

// TestShardOwnership checks the static work-queue partition: every
// (graph, edge) pair is owned by exactly one rank, for several worker
// counts.
func TestShardOwnership(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8} {
		for gi := 0; gi < 6; gi++ {
			for eid := 0; eid < 64; eid++ {
				owners := 0
				for r := 0; r < workers; r++ {
					if (core.ShardSpec{Rank: r, Workers: workers}).Owns(gi, eid) {
						owners++
					}
				}
				if owners != 1 {
					t.Fatalf("workers=%d: edge (%d,%d) has %d owners", workers, gi, eid, owners)
				}
			}
		}
	}
	if (core.ShardSpec{}).Active() {
		t.Error("zero ShardSpec must be inactive")
	}
	if (core.ShardSpec{Workers: 1}).Active() {
		t.Error("1-worker ShardSpec must be inactive")
	}
}

// TestWorkerSeeds pins the seed-derivation contract: rank 0 keeps the
// base seed and all ranks are pairwise distinct.
func TestWorkerSeeds(t *testing.T) {
	const base = int64(42)
	if WorkerSeed(base, 0) != base {
		t.Fatal("rank 0 must keep the base seed")
	}
	seen := map[int64]int{}
	for r := 0; r < 16; r++ {
		s := WorkerSeed(base, r)
		if prev, dup := seen[s]; dup {
			t.Fatalf("ranks %d and %d share seed %d", prev, r, s)
		}
		seen[s] = r
	}
}

// TestStopAtPoints smoke-tests the opt-in time-to-target mode: the
// campaign stops early once the global frontier reaches the target.
func TestStopAtPoints(t *testing.T) {
	b := mailbox()
	cc := testCoreConfig(3)
	cc.MaxVectors = 50000
	rep, err := Run(b.Elaborate, b.Properties, Config{Config: cc, Workers: 2, StopAtPoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Merged.FinalPoints < 10 {
		t.Fatalf("stopped below target: %d points", rep.Merged.FinalPoints)
	}
	if rep.TimeToTargetNS <= 0 {
		t.Error("TimeToTargetNS not recorded")
	}
	if rep.Merged.Vectors >= 2*cc.MaxVectors {
		t.Errorf("campaign did not stop early: %d vectors applied", rep.Merged.Vectors)
	}
}
