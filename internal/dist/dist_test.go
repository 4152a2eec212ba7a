package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/dist"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/par"
)

// These tests drive the worker and the wire protocol end to end
// against the one coordinator there is: a fleet server hosting the
// campaign as its implicit, unnamed campaign — exactly what
// `symbfuzz -serve` runs. They live in dist's external test package
// because fleet imports dist.

// mailboxSpec is the shared campaign of the dist tests: the buggy
// SCMI mailbox, 2 ranks, fixed budget — the same configuration the
// par determinism tests run in-process.
func mailboxSpec(seed int64) dist.CampaignSpec {
	return dist.CampaignSpec{
		Bench:                 "scmi_mailbox",
		Interval:              50,
		Threshold:             2,
		MaxVectors:            3000,
		Seed:                  seed,
		Workers:               2,
		UseSnapshots:          true,
		ContinueAfterCoverage: true,
	}
}

// normalizeReport mirrors the par test helper: zero wall-clock fields
// and fold the scheduling-dependent cache hit/miss split.
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

// parBaseline runs the fault-free in-process campaign the distributed
// runs must reproduce. Computed once and shared.
var (
	baselineOnce sync.Once
	baselineRep  *par.Report
	baselineErr  error
)

func parBaseline(t *testing.T) *par.Report {
	t.Helper()
	baselineOnce.Do(func() {
		b := designs.IPBenchmark(designs.Mailbox(), true)
		s := mailboxSpec(7)
		cc := core.Config{
			Interval: s.Interval, Threshold: s.Threshold, MaxVectors: s.MaxVectors,
			Seed: s.Seed, UseSnapshots: s.UseSnapshots, ContinueAfterCoverage: s.ContinueAfterCoverage,
		}
		baselineRep, baselineErr = par.Run(b.Elaborate, b.Properties, par.Config{Config: cc, Workers: s.Workers})
	})
	if baselineErr != nil {
		t.Fatalf("par baseline: %v", baselineErr)
	}
	return baselineRep
}

// testClient builds a wire client with test-friendly timeouts.
func testClient(addr string, seed int64) *dist.Client {
	cl := dist.NewClient(addr, seed)
	cl.CallTimeout = 10 * time.Second
	cl.MaxElapsed = 60 * time.Second
	return cl
}

// serve starts a fleet coordinator on addr hosting cc as its implicit
// campaign. The server is shut down at test end (tests that kill it
// earlier call Shutdown themselves; a second Shutdown is harmless).
func serve(t *testing.T, addr string, cc dist.CoordConfig) (*fleet.Server, *dist.CampaignState) {
	t.Helper()
	s, err := fleet.NewServer(addr, fleet.Config{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	cs, err := s.Host(cc)
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	return s, cs
}

// wait blocks until the implicit campaign completes.
func wait(t *testing.T, s *fleet.Server) *par.Report {
	t.Helper()
	rep, err := s.WaitCampaign(context.Background(), "")
	if err != nil {
		t.Fatalf("WaitCampaign: %v", err)
	}
	return rep
}

// runWorkers runs one worker per id concurrently, worker i hinting
// rank i, and fails the test on any worker error.
func runWorkers(t *testing.T, addr string, ids ...string) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			errs[i] = dist.RunWorker(context.Background(), dist.WorkerConfig{
				Addr: addr, WorkerID: id, RankHint: i, Client: testClient(addr, int64(i)),
			})
		}(i, id)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %s: %v", ids[i], err)
		}
	}
}

// requireParity asserts that a distributed campaign's report matches
// the fault-free in-process baseline: merged report and each rank's
// report, modulo wall-clock fields.
func requireParity(t *testing.T, got, want *par.Report) {
	t.Helper()
	if !reflect.DeepEqual(got.Seeds, want.Seeds) {
		t.Fatalf("seed vectors differ: %v vs %v", got.Seeds, want.Seeds)
	}
	gm, wm := normalizeReport(got.Merged), normalizeReport(want.Merged)
	if !reflect.DeepEqual(gm, wm) {
		t.Errorf("merged report diverged from in-process run:\ndist: %+v\npar:  %+v", gm, wm)
	}
	if len(got.PerWorker) != len(want.PerWorker) {
		t.Fatalf("per-worker report counts differ: %d vs %d", len(got.PerWorker), len(want.PerWorker))
	}
	for r := range want.PerWorker {
		if got.PerWorker[r] == nil {
			t.Errorf("rank %d never reported", r)
			continue
		}
		gr, wr := normalizeReport(got.PerWorker[r]), normalizeReport(want.PerWorker[r])
		if !reflect.DeepEqual(gr, wr) {
			t.Errorf("rank %d report diverged:\ndist: %+v\npar:  %+v", r, gr, wr)
		}
	}
}

// TestCoordinatorKillResume kills the coordinator after rank 0's
// report landed in the journal, restarts it with Resume on the same
// journal, and finishes the campaign against the new incarnation. The
// merged report equals the fault-free run and rank 0 is not re-run.
func TestCoordinatorKillResume(t *testing.T) {
	want := parBaseline(t)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx := context.Background()

	s1, _ := serve(t, "127.0.0.1:0", dist.CoordConfig{Spec: mailboxSpec(7), JournalPath: journal})
	if err := dist.RunWorker(ctx, dist.WorkerConfig{
		Addr: s1.Addr(), WorkerID: "early", RankHint: 0, MaxRanks: 1,
		Client: testClient(s1.Addr(), 1),
	}); err != nil {
		t.Fatalf("early worker: %v", err)
	}
	// Kill the first coordinator. Its in-memory leases and frontier
	// die with it; only the journal survives.
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2, _ := serve(t, "127.0.0.1:0", dist.CoordConfig{Spec: mailboxSpec(7), JournalPath: journal, Resume: true})
	if err := dist.RunWorker(ctx, dist.WorkerConfig{
		Addr: s2.Addr(), WorkerID: "late", RankHint: -1,
		Client: testClient(s2.Addr(), 2),
	}); err != nil {
		t.Fatalf("late worker: %v", err)
	}
	requireParity(t, wait(t, s2), want)

	// The implicit campaign journals under the empty name, as -serve
	// always has.
	if _, name, err := dist.LoadJournalSpec(journal); err != nil || name != "" {
		t.Errorf("journal campaign record: name %q err %v, want the empty name", name, err)
	}
}

// runDistTraced runs a full 2-worker loopback campaign with a JSONL
// tracer on the coordinator and returns the report plus trace lines.
func runDistTraced(t *testing.T, seed int64) (*par.Report, []string) {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	o := obs.New(obs.Options{Tracer: tr})

	s, _ := serve(t, "127.0.0.1:0", dist.CoordConfig{Spec: mailboxSpec(seed), Obs: o})
	runWorkers(t, s.Addr(), "wA", "wB")
	rep := wait(t, s)
	if err := tr.Close(); err != nil {
		t.Fatalf("tracer close: %v", err)
	}
	return rep, strings.Split(strings.TrimSpace(buf.String()), "\n")
}

// normalizeTrace zeroes wall-clock fields and sorts, turning the
// stream into a comparable event multiset (par test idiom).
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

// TestDistDeterminism runs the same-seed loopback campaign twice:
// merged reports match the in-process baseline and each other,
// trace-event multisets agree, and both traces validate with two
// worker lanes. CI runs this under -race.
func TestDistDeterminism(t *testing.T) {
	repA, traceA := runDistTraced(t, 7)
	repB, traceB := runDistTraced(t, 7)
	requireParity(t, repA, parBaseline(t))
	requireParity(t, repB, repA)

	na, nb := normalizeTrace(t, traceA), normalizeTrace(t, traceB)
	if len(na) != len(nb) {
		t.Fatalf("trace lengths differ: %d vs %d events", len(na), len(nb))
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("trace multisets diverge at sorted index %d:\n%s\n%s", i, na[i], nb[i])
		}
	}
	for i, lines := range [][]string{traceA, traceB} {
		sum, err := obs.ValidateTrace(strings.NewReader(strings.Join(lines, "\n")))
		if err != nil {
			t.Fatalf("campaign %d: trace invalid: %v", i, err)
		}
		if sum.Workers != 2 {
			t.Errorf("campaign %d: trace shows %d worker lanes, want 2", i, sum.Workers)
		}
	}
}

// TestCrossProcessCausalChain runs two ranks in strict sequence as
// separate worker processes and checks the merged trace they ship. Each
// rank's plan cache is local to its process, so no span may link across
// ranks: every cache-hit origin resolves inside its own lane, the trace
// has the coordinator root plus one root per worker lane, and the
// campaign report rendered from it is byte-identical across renders.
// (In-process par campaigns share one cache; obs's TestFindCrossRankChain
// covers the cross-rank chain logic.)
func TestCrossProcessCausalChain(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	o := obs.New(obs.Options{Tracer: tr})

	// Seed 5 is a campaign where the two ranks stagnate at a shared
	// register state: over a shared cache rank 1 would reuse a plan
	// rank 0 solved.
	s, _ := serve(t, "127.0.0.1:0", dist.CoordConfig{Spec: mailboxSpec(5), Obs: o})
	ctx := context.Background()

	// Sequential ranks: worker "first" drains rank 0 and exits before
	// worker "second" leases rank 1. Separate RunWorker calls mean
	// separate worker structs and separate plan caches.
	for i, id := range []string{"first", "second"} {
		if err := dist.RunWorker(ctx, dist.WorkerConfig{
			Addr: s.Addr(), WorkerID: id, RankHint: i, MaxRanks: 1,
			Client: testClient(s.Addr(), int64(i)),
		}); err != nil {
			t.Fatalf("worker %s: %v", id, err)
		}
	}
	wait(t, s)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateSpans(events)
	if err != nil {
		t.Fatalf("merged trace spans invalid: %v", err)
	}
	if sum.Roots != 3 { // coordinator lane + 2 worker lanes
		t.Errorf("campaign roots = %d, want 3", sum.Roots)
	}
	if sum.CrossRankLinks != 0 {
		t.Errorf("%d cross-rank cache links between worker processes with local plan caches", sum.CrossRankLinks)
	}
	if sum.DanglingOrigins != 0 {
		t.Errorf("%d cache hits reference origin spans missing from the merged trace", sum.DanglingOrigins)
	}

	// The report generator renders this trace deterministically.
	rep1, err := obs.BuildCampaignReport(events)
	if err != nil {
		t.Fatalf("report over dist trace: %v", err)
	}
	var h1, h2 bytes.Buffer
	if err := obs.RenderHTML(&h1, rep1); err != nil {
		t.Fatal(err)
	}
	rep2, err := obs.BuildCampaignReport(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.RenderHTML(&h2, rep2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h1.Bytes(), h2.Bytes()) {
		t.Error("HTML report is not byte-identical across renders of the dist trace")
	}
}

// canonicalLedger derives the canonical cost ledger of a JSONL trace.
func canonicalLedger(t *testing.T, trace []byte) []byte {
	t.Helper()
	events, err := obs.ReadEvents(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.BuildCampaignReport(events)
	if err != nil {
		t.Fatal(err)
	}
	l := rep.Ledger
	if l.Workers != 2 || l.Totals.Evals == 0 || l.Totals.Dispatches == 0 {
		t.Fatalf("want 2 profiled ranks with sim evals and solver dispatches, got %d ranks, totals %+v", l.Workers, l.Totals)
	}
	out, err := l.Canonical().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProfiledLedgerMatchesPar is the cost-ledger parity contract: the
// canonical ledger derived from a profiled 2-process loopback
// campaign's merged trace is byte-identical to the one derived from
// the in-process par orchestrator's trace — and to a second
// distributed run of the same seed.
func TestProfiledLedgerMatchesPar(t *testing.T) {
	b := designs.IPBenchmark(designs.Mailbox(), true)
	spec := mailboxSpec(7)
	spec.Profile = true

	var parTrace bytes.Buffer
	cc := core.Config{
		Interval: spec.Interval, Threshold: spec.Threshold, MaxVectors: spec.MaxVectors,
		Seed: spec.Seed, UseSnapshots: spec.UseSnapshots, ContinueAfterCoverage: spec.ContinueAfterCoverage,
		SimProfile: true,
		Obs:        obs.New(obs.Options{Tracer: obs.NewJSONLTracer(&parTrace)}),
	}
	if _, err := par.Run(b.Elaborate, b.Properties, par.Config{Config: cc, Workers: spec.Workers}); err != nil {
		t.Fatalf("par: %v", err)
	}
	if err := cc.Obs.Close(); err != nil {
		t.Fatal(err)
	}
	want := canonicalLedger(t, parTrace.Bytes())

	runDist := func() []byte {
		var buf bytes.Buffer
		o := obs.New(obs.Options{Tracer: obs.NewJSONLTracer(&buf)})
		s, _ := serve(t, "127.0.0.1:0", dist.CoordConfig{Spec: spec, Obs: o})
		runWorkers(t, s.Addr(), "pA", "pB")
		wait(t, s)
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		return canonicalLedger(t, buf.Bytes())
	}
	got1, got2 := runDist(), runDist()
	if !bytes.Equal(got1, want) {
		t.Errorf("distributed canonical ledger diverged from in-process run:\ndist: %s\npar:  %s", got1, want)
	}
	if !bytes.Equal(got1, got2) {
		t.Errorf("distributed canonical ledger not deterministic across runs:\n%s\nvs\n%s", got1, got2)
	}
}

// TestSolverMeterCountsEachSolveOnce pins the admission layer's
// solver-seconds meter on a profiled 2-rank campaign: SolverNS is the
// sum of the solve times the ranks stored into the plan cache, each
// live solve counted once however the campaign is instrumented.
func TestSolverMeterCountsEachSolveOnce(t *testing.T) {
	spec := mailboxSpec(7)
	spec.Profile = true
	var mu sync.Mutex
	var stored int64
	stores := 0
	s, cs := serve(t, "127.0.0.1:0", dist.CoordConfig{Spec: spec,
		OnSolve: func(rank, graph, to int, outcome string, ns int64) {
			mu.Lock()
			stored += ns
			stores++
			mu.Unlock()
		}})
	runWorkers(t, s.Addr(), "mA", "mB")
	wait(t, s)
	mu.Lock()
	defer mu.Unlock()
	if stores == 0 || stored == 0 {
		t.Fatalf("no timed cache stores observed (%d stores, %d ns)", stores, stored)
	}
	if got := cs.SolverNS(); got != stored {
		t.Errorf("SolverNS = %d, want the %d stores' sum %d", got, stores, stored)
	}
}

// TestSingleRankSolverMeter pins the solver meter of a campaign with
// no plan cache: a 1-rank campaign meters its accepted report's solve
// totals, and a coordinator resumed from the journal reads the same.
func TestSingleRankSolverMeter(t *testing.T) {
	spec := mailboxSpec(7)
	spec.Workers = 1
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx := context.Background()

	s1, cs1 := serve(t, "127.0.0.1:0", dist.CoordConfig{Spec: spec, JournalPath: journal})
	runWorkers(t, s1.Addr(), "solo")
	rep := wait(t, s1).PerWorker[0]
	if rep.SymbolicInvocations == 0 {
		t.Fatal("the campaign made no symbolic invocations")
	}
	want := rep.Timings.Solve.BlastNS + rep.Timings.Solve.CDCLNS
	if want <= 0 {
		t.Fatalf("rank report carries no solve time (%+v)", rep.Timings.Solve)
	}
	if got := cs1.SolverNS(); got != want {
		t.Errorf("SolverNS = %d, want the rank's blast+CDCL %d", got, want)
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	_, cs2 := serve(t, "127.0.0.1:0", dist.CoordConfig{Spec: spec, JournalPath: journal, Resume: true})
	if got := cs2.SolverNS(); got != want {
		t.Errorf("resumed SolverNS = %d, want %d", got, want)
	}
}

// TestRankShapeMismatchRejected pins the coordinator's only check
// that ranks built the same design: once rank 0's report is accepted,
// a report whose graph totals or graph count differ, and a batch delta
// with another graph count, answer 400 and journal nothing — and the
// honest rank 1 still completes the campaign with full parity.
func TestRankShapeMismatchRejected(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx := context.Background()
	s, _ := serve(t, "127.0.0.1:0", dist.CoordConfig{Spec: mailboxSpec(7), JournalPath: journal})
	if err := dist.RunWorker(ctx, dist.WorkerConfig{
		Addr: s.Addr(), WorkerID: "honest", RankHint: 0, MaxRanks: 1,
		Client: testClient(s.Addr(), 1),
	}); err != nil {
		t.Fatalf("rank 0: %v", err)
	}
	reports := func() [][]byte {
		data, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			if bytes.Contains(line, []byte(`"kind":"report"`)) {
				out = append(out, line)
			}
		}
		return out
	}
	var rec struct {
		Report   core.Report  `json:"report"`
		Coverage dist.CovWire `json:"coverage"`
	}
	if err := json.Unmarshal(reports()[0], &rec); err != nil {
		t.Fatal(err)
	}

	cl := testClient(s.Addr(), 2)
	rejected := func(label string, err error) {
		t.Helper()
		if pe, ok := err.(*dist.ProtoError); !ok || pe.Status != 400 {
			t.Errorf("%s: got %v, want a 400 rejection", label, err)
		}
	}
	totals := rec.Report
	totals.NodesTotal++
	_, err := cl.Report(ctx, dist.ReportRequest{WorkerID: "doctored", Rank: 1, Report: totals, Coverage: rec.Coverage})
	rejected("report with other graph totals", err)
	wide := rec.Coverage
	wide.Nodes = append(wide.Nodes, []int{0})
	wide.Edges = append(wide.Edges, []int{})
	_, err = cl.Report(ctx, dist.ReportRequest{WorkerID: "doctored", Rank: 1, Report: rec.Report, Coverage: wide})
	rejected("report with an extra graph", err)
	_, err = cl.Batch(ctx, dist.BatchRequest{WorkerID: "doctored", Rank: 1,
		Publishes: []dist.PublishDelta{{Seq: 1, Vectors: 10, Delta: wide}}})
	rejected("delta with an extra graph", err)
	if n := len(reports()); n != 1 {
		t.Fatalf("journal holds %d report records after the rejections, want rank 0's alone", n)
	}

	if err := dist.RunWorker(ctx, dist.WorkerConfig{
		Addr: s.Addr(), WorkerID: "late", RankHint: 1,
		Client: testClient(s.Addr(), 3),
	}); err != nil {
		t.Fatalf("rank 1: %v", err)
	}
	requireParity(t, wait(t, s), parBaseline(t))
}

// TestVersionSkew pins the join-time version gate: a worker speaking
// a different protocol revision is rejected with a clear error, not
// silently admitted.
func TestVersionSkew(t *testing.T) {
	s, _ := serve(t, "127.0.0.1:0", dist.CoordConfig{Spec: mailboxSpec(7)})

	cl := testClient(s.Addr(), 0)
	_, err := cl.Join(context.Background(), dist.JoinRequest{Proto: dist.ProtoVersion + 1, WorkerID: "skewed"})
	if err == nil {
		t.Fatal("version-skewed join was accepted")
	}
	pe, ok := err.(*dist.ProtoError)
	if !ok {
		t.Fatalf("got %T (%v), want *ProtoError", err, err)
	}
	if pe.Status != 400 || !strings.Contains(pe.Msg, "protocol version mismatch") {
		t.Fatalf("rejection not explanatory: %v", pe)
	}
}

// TestBatchResyncAfterCoordinatorRestart exercises the v4 resync
// path: a batching worker survives a coordinator restart mid-rank
// (its client retries ride out the gap), the new incarnation answers
// its next delta with Resync, the worker folds its full coverage back
// in, and the campaign still ends byte-identical to the in-process
// baseline.
func TestBatchResyncAfterCoordinatorRestart(t *testing.T) {
	want := parBaseline(t)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx := context.Background()

	s1, _ := serve(t, "127.0.0.1:0", dist.CoordConfig{Spec: mailboxSpec(7), JournalPath: journal})
	addr := s1.Addr()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = dist.RunWorker(ctx, dist.WorkerConfig{
			Addr: addr, WorkerID: "survivor", RankHint: 0, MaxRanks: 1,
			Client: testClient(addr, 1),
		})
	}()

	// Restart the coordinator on the same address while the worker is
	// mid-rank. Its in-memory delta baseline dies with it.
	time.Sleep(300 * time.Millisecond)
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s2, _ := serve(t, addr, dist.CoordConfig{Spec: mailboxSpec(7), JournalPath: journal, Resume: true})

	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[1] = dist.RunWorker(ctx, dist.WorkerConfig{
			Addr: addr, WorkerID: "late", RankHint: 1,
			Client: testClient(addr, 2),
		})
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	requireParity(t, wait(t, s2), want)
}

// TestJournalCompactionKillResume pins compaction across a restart: a
// killed coordinator's journal, bloated with duplicate report records
// far past its live state, is compacted when the resumed coordinator
// reopens it, and that coordinator finishes the campaign with full
// parity — resume cost is O(live state), not O(append history).
func TestJournalCompactionKillResume(t *testing.T) {
	want := parBaseline(t)
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx := context.Background()

	s1, _ := serve(t, "127.0.0.1:0", dist.CoordConfig{Spec: mailboxSpec(7), JournalPath: path, CompactBytes: 64})
	if err := dist.RunWorker(ctx, dist.WorkerConfig{
		Addr: s1.Addr(), WorkerID: "early", RankHint: 0, MaxRanks: 1,
		Client: testClient(s1.Addr(), 1),
	}); err != nil {
		t.Fatalf("early worker: %v", err)
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Bloat the journal with duplicate redeliveries of the rank-0
	// record — the append-history growth compaction must bound.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report []byte
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		if bytes.Contains(line, []byte(`"kind":"report"`)) {
			report = append(append([]byte(nil), line...), '\n')
		}
	}
	if report == nil {
		t.Fatal("rank 0 record missing before bloat")
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := f.Write(report); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _ := serve(t, "127.0.0.1:0", dist.CoordConfig{Spec: mailboxSpec(7), JournalPath: path, Resume: true, CompactBytes: 64})
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(bytes.TrimSpace(data), []byte("\n")) + 1; lines > 8 {
		t.Fatalf("resume left %d journal lines; want O(live state)", lines)
	}
	if err := dist.RunWorker(ctx, dist.WorkerConfig{
		Addr: s2.Addr(), WorkerID: "late", RankHint: -1,
		Client: testClient(s2.Addr(), 2),
	}); err != nil {
		t.Fatalf("late worker: %v", err)
	}
	requireParity(t, wait(t, s2), want)
}
