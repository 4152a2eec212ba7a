package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/par"
)

// mailboxSpec is the shared campaign of the fleet tests — the same
// buggy SCMI mailbox configuration the dist and par determinism tests
// run, so every parity assertion chains back to the same baseline.
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

// baseline lazily computes (and caches per spec) the fault-free
// in-process campaign every fleet-hosted run must reproduce.
var (
	blMu sync.Mutex
	bl   = map[string]*par.Report{}
)

func baseline(t *testing.T, s dist.CampaignSpec) *par.Report {
	t.Helper()
	blMu.Lock()
	defer blMu.Unlock()
	key := fmt.Sprint(s)
	if r := bl[key]; r != nil {
		return r
	}
	b, properties, err := dist.ResolveSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := par.Run(b.Elaborate, properties, par.Config{Config: specConfig(s), Workers: s.Workers})
	if err != nil {
		t.Fatalf("par baseline (%s seed %d): %v", s.Bench, s.Seed, err)
	}
	bl[key] = r
	return r
}

// specConfig is the engine configuration of an in-process run of s.
func specConfig(s dist.CampaignSpec) core.Config {
	return core.Config{
		Interval: s.Interval, Threshold: s.Threshold, MaxVectors: s.MaxVectors,
		Seed: s.Seed, UseSnapshots: s.UseSnapshots, ContinueAfterCoverage: s.ContinueAfterCoverage,
	}
}

// normalizeReport zeroes wall-clock fields and folds the scheduling-
// dependent cache hit/miss split (same contract as the dist tests).
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

func requireParity(t *testing.T, label string, got, want *par.Report) {
	t.Helper()
	if !reflect.DeepEqual(got.Seeds, want.Seeds) {
		t.Fatalf("%s: seed vectors differ: %v vs %v", label, got.Seeds, want.Seeds)
	}
	gm, wm := normalizeReport(got.Merged), normalizeReport(want.Merged)
	if !reflect.DeepEqual(gm, wm) {
		t.Errorf("%s: merged report diverged from in-process run:\nfleet: %+v\npar:   %+v", label, gm, wm)
	}
	if len(got.PerWorker) != len(want.PerWorker) {
		t.Fatalf("%s: per-worker report counts differ: %d vs %d", label, len(got.PerWorker), len(want.PerWorker))
	}
	for r := range want.PerWorker {
		if got.PerWorker[r] == nil {
			t.Errorf("%s: rank %d never reported", label, r)
			continue
		}
		gr, wr := normalizeReport(got.PerWorker[r]), normalizeReport(want.PerWorker[r])
		if !reflect.DeepEqual(gr, wr) {
			t.Errorf("%s: rank %d report diverged:\nfleet: %+v\npar:   %+v", label, r, gr, wr)
		}
	}
}

func testClient(addr string, seed int64) *dist.Client {
	cl := dist.NewClient(addr, seed)
	cl.CallTimeout = 10 * time.Second
	cl.MaxElapsed = 60 * time.Second
	return cl
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

// createCampaign creates a campaign over the control surface.
func createCampaign(t *testing.T, addr string, req CreateRequest) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+addr+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("create %s: %v", req.Name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("create %s: status %d: %s", req.Name, resp.StatusCode, msg)
	}
}

// runWorkers runs n concurrent workers against a named campaign and
// fails the test on any worker error.
func runWorkers(t *testing.T, addr, campaign string, n int, seedBase int64) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(context.Background(), dist.WorkerConfig{
				Addr: addr, Campaign: campaign,
				WorkerID: fmt.Sprintf("%s-w%d", campaign, i), RankHint: i,
				Client: testClient(addr, seedBase+int64(i)),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("campaign %s worker %d: %v", campaign, i, err)
		}
	}
}

// TestFleetThreeCampaignParity is the tentpole contract: three named
// campaigns multiplexed on one fleet process, each with two workers
// publishing through the batched wire, each ending byte-identical to
// its own in-process baseline — and the control surface and /metrics
// endpoint reflect all three. Two campaigns fuzz the mailbox; the third
// runs the tuned campaign (I=100, Th=2) on the bus arbiter, so parity
// holds on a second design whose guidance solves plans.
func TestFleetThreeCampaignParity(t *testing.T) {
	s := newTestServer(t, Config{})
	busArb := mailboxSpec(1)
	busArb.Bench, busArb.Interval, busArb.MaxVectors = "bus_arb", 100, 8000
	specs := map[string]dist.CampaignSpec{"alpha": mailboxSpec(7), "beta": mailboxSpec(11), "gamma": busArb}
	names := []string{"alpha", "beta", "gamma"}
	for _, name := range names {
		createCampaign(t, s.Addr(), CreateRequest{Name: name, Spec: specs[name]})
	}

	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			runWorkers(t, s.Addr(), name, 2, int64(100*i))
		}(i, name)
	}
	wg.Wait()

	for _, name := range names {
		rep, err := s.WaitCampaign(context.Background(), name)
		if err != nil {
			t.Fatalf("campaign %s: %v", name, err)
		}
		requireParity(t, name, rep, baseline(t, specs[name]))
	}

	// Control surface: the list shows all three campaigns, done.
	resp, err := http.Get("http://" + s.Addr() + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list ListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Campaigns) != 3 {
		t.Fatalf("list: got %d campaigns, want 3", len(list.Campaigns))
	}
	for i, c := range list.Campaigns {
		if c.Campaign != names[i] {
			t.Errorf("list[%d]: campaign %q, want %q (sorted)", i, c.Campaign, names[i])
		}
		if !c.Done {
			t.Errorf("campaign %s not done in list", c.Campaign)
		}
		if c.Batches == 0 {
			t.Errorf("campaign %s ingested no batches — batched wire not exercised", c.Campaign)
		}
	}

	// Prometheus endpoint: per-campaign labels, fleet queue metrics.
	resp, err = http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`symbfuzz_fleet_batches_total{campaign="alpha"}`,
		`symbfuzz_fleet_queue_depth{campaign="beta"}`,
		`symbfuzz_fleet_batch_bytes_bucket{campaign="gamma",le="256"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHostStopAtPoints pins the fleet-hosted stop-at-target path that
// fuzzctl create -stop-at-points relies on: a two-rank campaign hosted
// with StopAtPoints set to the coverage one worker discovers on the
// budget reaches that target, and its merged report agrees with the
// in-process run at the same target on graph totals and pruning.
// Stopping at a target truncates each rank at a wall-clock-dependent
// vector count, so only the elaboration-derived fields are
// deterministic here.
func TestHostStopAtPoints(t *testing.T) {
	spec := mailboxSpec(7)
	b, properties, err := dist.ResolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers, stopAt int) *par.Report {
		r, err := par.Run(b.Elaborate, properties,
			par.Config{Config: specConfig(spec), Workers: workers, StopAtPoints: stopAt})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	target := run(1, 0).Merged.FinalPoints
	inproc := run(spec.Workers, target)

	s := newTestServer(t, Config{})
	if _, err := s.Host(dist.CoordConfig{Spec: spec, StopAtPoints: target}); err != nil {
		t.Fatalf("Host: %v", err)
	}
	runWorkers(t, s.Addr(), "", spec.Workers, 0)
	rep, err := s.WaitCampaign(context.Background(), "")
	if err != nil {
		t.Fatalf("WaitCampaign: %v", err)
	}
	if rep.TimeToTargetNS <= 0 || rep.Merged.FinalPoints < target {
		t.Errorf("fleet missed the %d-point target: reached %d, time to target %dns",
			target, rep.Merged.FinalPoints, rep.TimeToTargetNS)
	}
	if inproc.TimeToTargetNS <= 0 {
		t.Errorf("in-process run missed the %d-point target", target)
	}
	got, want := rep.Merged, inproc.Merged
	if got.NodesTotal != want.NodesTotal || got.EdgesTotal != want.EdgesTotal ||
		got.PrunedTargets != want.PrunedTargets {
		t.Errorf("fleet and in-process reports disagree: nodes %d/%d, edges %d/%d, pruned %d/%d",
			got.NodesTotal, want.NodesTotal, got.EdgesTotal, want.EdgesTotal,
			got.PrunedTargets, want.PrunedTargets)
	}
}

// TestFleetIsolationWorkerDeath pins tenant isolation under faults:
// campaign A loses a worker mid-shard and heals via lease expiry and
// a replacement; campaign B shares the coordinator process and must
// end byte-identical to its baseline anyway.
func TestFleetIsolationWorkerDeath(t *testing.T) {
	s := newTestServer(t, Config{LeaseTTL: 500 * time.Millisecond})
	createCampaign(t, s.Addr(), CreateRequest{Name: "faulty", Spec: mailboxSpec(7)})
	createCampaign(t, s.Addr(), CreateRequest{Name: "clean", Spec: mailboxSpec(11)})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runWorkers(t, s.Addr(), "clean", 2, 500)
	}()

	// Campaign A: rank 1 runs clean; rank 0's worker dies after two
	// publishes and a replacement drains the rank from scratch.
	var aErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		aErr = dist.RunWorker(context.Background(), dist.WorkerConfig{
			Addr: s.Addr(), Campaign: "faulty", WorkerID: "stable", RankHint: 1, MaxRanks: 1,
			Client: testClient(s.Addr(), 1),
		})
	}()
	victimErr := dist.RunWorker(context.Background(), dist.WorkerConfig{
		Addr: s.Addr(), Campaign: "faulty", WorkerID: "victim", RankHint: 0, MaxRanks: 1,
		DieAfterPublishes: 2,
		Client:            testClient(s.Addr(), 2),
	})
	if !errors.Is(victimErr, dist.ErrWorkerDied) {
		t.Fatalf("victim: got %v, want ErrWorkerDied", victimErr)
	}
	if err := dist.RunWorker(context.Background(), dist.WorkerConfig{
		Addr: s.Addr(), Campaign: "faulty", WorkerID: "healer", RankHint: 0,
		Client: testClient(s.Addr(), 3),
	}); err != nil {
		t.Fatalf("healer: %v", err)
	}
	wg.Wait()
	if aErr != nil {
		t.Fatalf("stable worker: %v", aErr)
	}

	for name, seed := range map[string]int64{"faulty": 7, "clean": 11} {
		rep, err := s.WaitCampaign(context.Background(), name)
		if err != nil {
			t.Fatalf("campaign %s: %v", name, err)
		}
		requireParity(t, name, rep, baseline(t, mailboxSpec(seed)))
	}
}

// TestFleetKillResume pins fleet crash recovery: two campaigns each
// complete one rank, the fleet process dies, a new incarnation
// re-admits both campaigns from their journals, replacement workers
// drain the remaining ranks, and both reports match their baselines.
// Each campaign's merged trace — rebuilt across the restart from
// journaled rank events — must validate as a well-formed stream.
func TestFleetKillResume(t *testing.T) {
	dir := t.TempDir()
	traces := t.TempDir()
	ctx := context.Background()
	s1 := newTestServer(t, Config{JournalDir: dir, TraceDir: traces})
	seeds := map[string]int64{"one": 7, "two": 11}
	for name, seed := range seeds {
		createCampaign(t, s1.Addr(), CreateRequest{Name: name, Spec: mailboxSpec(seed)})
	}
	for name := range seeds {
		if err := dist.RunWorker(ctx, dist.WorkerConfig{
			Addr: s1.Addr(), Campaign: name, WorkerID: name + "-early", RankHint: 0, MaxRanks: 1,
			Client: testClient(s1.Addr(), 1),
		}); err != nil {
			t.Fatalf("campaign %s early worker: %v", name, err)
		}
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2 := newTestServer(t, Config{JournalDir: dir, TraceDir: traces, Resume: true})
	for name, seed := range seeds {
		if err := dist.RunWorker(ctx, dist.WorkerConfig{
			Addr: s2.Addr(), Campaign: name, WorkerID: name + "-late", RankHint: -1,
			Client: testClient(s2.Addr(), 2),
		}); err != nil {
			t.Fatalf("campaign %s late worker: %v", name, err)
		}
		rep, err := s2.WaitCampaign(ctx, name)
		if err != nil {
			t.Fatalf("campaign %s: %v", name, err)
		}
		requireParity(t, name, rep, baseline(t, mailboxSpec(seed)))
	}

	// Shut down the second incarnation to flush the merged traces,
	// then validate each campaign's stream end to end.
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown s2: %v", err)
	}
	for name := range seeds {
		data, err := os.ReadFile(filepath.Join(traces, name+".trace.jsonl"))
		if err != nil {
			t.Fatalf("campaign %s trace: %v", name, err)
		}
		sum, err := obs.ValidateTrace(bytes.NewReader(data))
		if err != nil {
			t.Errorf("campaign %s trace invalid: %v", name, err)
		} else if sum.Events == 0 {
			t.Errorf("campaign %s trace is empty", name)
		}
	}
}

// TestFleetAdmission pins the quota layer's rejections: invalid
// names, over-quota rank counts, duplicate names, and the campaign
// capacity limit (429 + Retry-After).
func TestFleetAdmission(t *testing.T) {
	s := newTestServer(t, Config{Quota: Quota{MaxCampaigns: 2, MaxWorkers: 4}})
	post := func(req CreateRequest) *http.Response {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post("http://"+s.Addr()+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post(CreateRequest{Name: "../evil", Spec: mailboxSpec(7)}); resp.StatusCode != 400 {
		t.Errorf("invalid name: status %d, want 400", resp.StatusCode)
	}
	big := mailboxSpec(7)
	big.Workers = 8
	if resp := post(CreateRequest{Name: "big", Spec: big}); resp.StatusCode != 400 {
		t.Errorf("over-quota ranks: status %d, want 400", resp.StatusCode)
	}
	if resp := post(CreateRequest{Name: "a", Spec: mailboxSpec(7)}); resp.StatusCode != 201 {
		t.Fatalf("create a: status %d, want 201", resp.StatusCode)
	}
	if resp := post(CreateRequest{Name: "a", Spec: mailboxSpec(7)}); resp.StatusCode != 409 {
		t.Errorf("duplicate: status %d, want 409", resp.StatusCode)
	}
	if resp := post(CreateRequest{Name: "b", Spec: mailboxSpec(11)}); resp.StatusCode != 201 {
		t.Fatalf("create b: status %d, want 201", resp.StatusCode)
	}
	resp := post(CreateRequest{Name: "c", Spec: mailboxSpec(13)})
	if resp.StatusCode != 429 {
		t.Errorf("at capacity: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	// An RPC naming a missing campaign is a 404, and an unnamed RPC
	// against a multi-campaign fleet is too (no sole campaign to
	// default to).
	for _, campaign := range []string{"ghost", ""} {
		body, _ := json.Marshal(dist.LeaseRequest{WorkerID: "w", Rank: -1, Campaign: campaign})
		lresp, err := http.Post("http://"+s.Addr()+"/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if lresp.StatusCode != 404 {
			t.Errorf("lease campaign=%q: status %d, want 404", campaign, lresp.StatusCode)
		}
		lresp.Body.Close()
	}
}

// TestFleetBackpressure429 pins the ingest bound: with a single-slot
// queue and a slowed drainer, concurrent batches overflow into 429 +
// Retry-After, the queue metrics record it, and a later retry of the
// same batch succeeds (backpressure is throughput-only).
func TestFleetBackpressure429(t *testing.T) {
	s := newTestServer(t, Config{
		Quota:      Quota{QueueDepth: 1},
		DrainDelay: 300 * time.Millisecond,
	})
	createCampaign(t, s.Addr(), CreateRequest{Name: "busy", Spec: mailboxSpec(7)})

	batch := func(rank int, seq uint64) int {
		body, _ := json.Marshal(dist.BatchRequest{
			Campaign: "busy", WorkerID: fmt.Sprintf("w%d", rank), Rank: rank,
			Publishes: []dist.PublishDelta{{Seq: seq, Vectors: 10}},
		})
		resp, err := http.Post("http://"+s.Addr()+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After header")
		}
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	// First batch occupies the drainer; the second fills the one-slot
	// queue; the third must bounce.
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = batch(i, 1)
		}(i)
		time.Sleep(50 * time.Millisecond)
	}
	over := batch(0, 2)
	wg.Wait()
	if codes[0] != 200 || codes[1] != 200 {
		t.Fatalf("queued batches: status %v, want 200s", codes)
	}
	if over != http.StatusTooManyRequests {
		t.Fatalf("overflow batch: status %d, want 429", over)
	}

	// After the queue drains, the rejected batch goes through.
	if code := batch(0, 2); code != 200 {
		t.Fatalf("retried batch: status %d, want 200", code)
	}

	resp, err := http.Get("http://" + s.Addr() + "/v1/campaigns/busy")
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Rejected429 < 1 {
		t.Errorf("status shows %d rejections, want >= 1", st.Rejected429)
	}
	if st.Batches < 3 {
		t.Errorf("status shows %d batches, want >= 3", st.Batches)
	}
}

// TestFleetSolverBudgetStop pins the solver-seconds quota: a campaign
// with a tiny budget is force-stopped once its workers' solver spend
// lands, ends early, and is flagged in its status.
func TestFleetSolverBudgetStop(t *testing.T) {
	s := newTestServer(t, Config{Quota: Quota{SolverBudgetNS: 1}})
	spec := mailboxSpec(7)
	createCampaign(t, s.Addr(), CreateRequest{Name: "capped", Spec: spec})

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(context.Background(), dist.WorkerConfig{
				Addr: s.Addr(), Campaign: "capped",
				WorkerID: fmt.Sprintf("capped-%d", i), RankHint: i,
				FlushInterval: 2 * time.Millisecond,
				Client:        testClient(s.Addr(), int64(i)),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	rep, err := s.WaitCampaign(context.Background(), "capped")
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + s.Addr() + "/v1/campaigns/capped")
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.BudgetStop {
		t.Fatal("budget-capped campaign was never force-stopped")
	}
	full := int64(spec.MaxVectors) * int64(spec.Workers)
	if int64(rep.Merged.Vectors) >= full {
		t.Errorf("budget stop did not shorten the campaign: %d vectors (full budget %d)", rep.Merged.Vectors, full)
	}
}

// TestFleetCancel pins the DELETE path: a cancelled campaign reports
// itself cancelled, answers leases with Done, and keeps its journal.
func TestFleetCancel(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{JournalDir: dir})
	createCampaign(t, s.Addr(), CreateRequest{Name: "doomed", Spec: mailboxSpec(7)})

	req, _ := http.NewRequest(http.MethodDelete, "http://"+s.Addr()+"/v1/campaigns/doomed", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Cancelled {
		t.Fatal("DELETE did not mark the campaign cancelled")
	}

	// A worker leasing against the cancelled campaign finds no work.
	body, _ := json.Marshal(dist.LeaseRequest{WorkerID: "late", Rank: -1, Campaign: "doomed"})
	lresp, err := http.Post("http://"+s.Addr()+"/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var lr dist.LeaseResponse
	if err := json.NewDecoder(lresp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if !lr.Done || lr.Rank != -1 {
		t.Errorf("lease after cancel: %+v, want Done", lr)
	}

	// The journal survives for post-mortem (campaign record intact).
	spec, name, err := dist.LoadJournalSpec(filepath.Join(dir, "doomed.jsonl"))
	if err != nil || spec == nil || name != "doomed" {
		t.Errorf("journal after cancel: spec=%v name=%q err=%v", spec, name, err)
	}
}

// closeTracer is a trace sink that records whether it was closed.
type closeTracer struct{ closed atomic.Bool }

func (c *closeTracer) Emit(*obs.Event) {}
func (c *closeTracer) Close() error    { c.closed.Store(true); return nil }

// TestHostWaitCancelInterrupted pins -serve's ctrl-C semantics:
// cancelling WaitCampaign on a Host'ed two-rank campaign mid-run trips
// the stop signal without cancelling the campaign, so the workers stop
// at their next boundary and deliver partial reports instead of
// abandoning their ranks, and the merge is marked Interrupted. The
// fleet leaves the caller's observer open.
func TestHostWaitCancelInterrupted(t *testing.T) {
	s := newTestServer(t, Config{})
	tr := &closeTracer{}
	spec := mailboxSpec(7)
	spec.MaxVectors = 1_000_000
	cs, err := s.Host(dist.CoordConfig{Spec: spec, Obs: obs.New(obs.Options{Tracer: tr})})
	if err != nil {
		t.Fatalf("Host: %v", err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(context.Background(), dist.WorkerConfig{
				Addr: s.Addr(), WorkerID: fmt.Sprintf("serve-w%d", i), RankHint: i,
				Client: testClient(s.Addr(), int64(i)),
			})
		}(i)
	}
	deadline := time.Now().Add(30 * time.Second)
	for cs.Status().Vectors == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := s.WaitCampaign(ctx, "")
	wg.Wait()
	if err != nil {
		t.Fatalf("WaitCampaign: %v", err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	if !rep.Merged.Interrupted {
		t.Error("merged report of a cancelled wait is not marked Interrupted")
	}
	ranks := 0
	for _, r := range rep.PerWorker {
		if r != nil {
			ranks++
		}
	}
	if ranks == 0 {
		t.Fatal("no rank delivered a partial report")
	}
	if full := spec.MaxVectors * uint64(spec.Workers); rep.Merged.Vectors >= full {
		t.Errorf("stop did not shorten the campaign: %d vectors of %d", rep.Merged.Vectors, full)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tr.closed.Load() {
		t.Error("fleet closed an observer it did not create")
	}
}

// TestServeWorkerBeforeHost pins the -serve start-up order: the
// listener is bound before the implicit campaign has elaborated, so an
// unnamed RPC against the still-empty fleet must be retryable (503),
// not a rejection, and a worker started before Host must drain the
// campaign once it is installed.
func TestServeWorkerBeforeHost(t *testing.T) {
	s := newTestServer(t, Config{})
	cl := testClient(s.Addr(), 1)
	cl.MaxElapsed = 0 // one attempt
	_, err := cl.Join(context.Background(), dist.JoinRequest{Proto: dist.ProtoVersion, WorkerID: "probe"})
	var pe *dist.ProtoError
	if err == nil || errors.As(err, &pe) {
		t.Fatalf("join against an empty fleet: %v, want a retryable error", err)
	}

	done := make(chan error, 1)
	go func() {
		done <- dist.RunWorker(context.Background(), dist.WorkerConfig{
			Addr: s.Addr(), WorkerID: "eager", RankHint: -1, Client: testClient(s.Addr(), 2),
		})
	}()
	spec := mailboxSpec(7)
	spec.Workers = 1
	if _, err := s.Host(dist.CoordConfig{Spec: spec}); err != nil {
		t.Fatalf("Host: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("early worker: %v", err)
	}
	if _, err := s.WaitCampaign(context.Background(), ""); err != nil {
		t.Fatalf("WaitCampaign: %v", err)
	}
}
