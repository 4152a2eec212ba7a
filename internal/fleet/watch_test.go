package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/watch"
)

// quietRules suppresses every timing-sensitive rule so only the
// deterministic coverage-stall detector can fire: solve latency, queue
// occupancy and 429 rates depend on scheduling, and a determinism test
// must not observe them.
func quietRules() watch.Rules {
	return watch.Rules{
		StallIntervals: 3,
		SolveRegress:   1e12,
		UnsatChurn:     1 << 20,
		QueueSatPct:    1e9,
		Rate429:        1 << 40,
	}
}

// readJournalAlerts returns the alert records of a campaign journal in
// append order.
func readJournalAlerts(t *testing.T, path string) []watch.Alert {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	defer f.Close()
	var out []watch.Alert
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		var rec struct {
			Kind  string       `json:"kind"`
			Alert *watch.Alert `json:"alert"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		if rec.Kind == "alert" && rec.Alert != nil {
			out = append(out, *rec.Alert)
		}
	}
	return out
}

func alertIDs(alerts []watch.Alert) []string {
	ids := make([]string, len(alerts))
	for i, a := range alerts {
		ids[i] = a.ID
	}
	return ids
}

func getSnapshot(t *testing.T, addr string) watch.Snapshot {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/watch/snapshot")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	var snap watch.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	return snap
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// driveFixedRank plays rank 0 of a one-rank campaign by hand over the
// wire: twelve /v1/batch calls, each carrying one delta that advances
// the vector count, of which only the first and the seventh add a
// coverage node, then a final report. Each applied delta is one watch
// sample, so the sample sequence — and every alert ID derived from it
// (stall episodes at samples 3 and 9 under quietRules) — is a pure
// function of this input, independent of batching cadence.
func driveFixedRank(t *testing.T, addr, campaign string) {
	t.Helper()
	ctx := context.Background()
	cl := testClient(addr, 40)
	const id = "fixed-w0"
	if _, err := cl.Join(ctx, dist.JoinRequest{Proto: dist.ProtoVersion, WorkerID: id, Campaign: campaign}); err != nil {
		t.Fatalf("join: %v", err)
	}
	if lr, err := cl.Lease(ctx, dist.LeaseRequest{WorkerID: id, Rank: 0, Campaign: campaign}); err != nil || lr.Rank != 0 {
		t.Fatalf("lease: %+v %v", lr, err)
	}
	node := func(ids ...int) dist.CovWire { return dist.CovWire{Nodes: [][]int{ids}, Edges: [][]int{{}}} }
	for seq := uint64(1); seq <= 12; seq++ {
		delta := node()
		switch seq {
		case 1:
			delta = node(0)
		case 7:
			delta = node(1)
		}
		resp, err := cl.Batch(ctx, dist.BatchRequest{
			Campaign: campaign, WorkerID: id, Rank: 0,
			Publishes: []dist.PublishDelta{{Seq: seq, Vectors: 250 * seq, Delta: delta}},
		})
		if err != nil || !resp.OK || resp.AckSeq != seq {
			t.Fatalf("batch %d: %+v %v", seq, resp, err)
		}
	}
	if _, err := cl.Report(ctx, dist.ReportRequest{
		WorkerID: id, Rank: 0, Campaign: campaign,
		Report: core.Report{Vectors: 3000, Cycles: 3000}, Coverage: node(0, 1),
	}); err != nil {
		t.Fatalf("report: %v", err)
	}
}

// TestWatchStallAlertDeterministic is the tentpole determinism pin:
// two identical single-rank campaigns on two watch-enabled fleets must
// journal byte-identical alert ID sequences, the alerts must surface
// on the status and snapshot surfaces, and the merged trace must carry
// them as typed spans and still validate.
func TestWatchStallAlertDeterministic(t *testing.T) {
	run := func() ([]watch.Alert, string, *Server, string) {
		dir := t.TempDir()
		traces := t.TempDir()
		s := newTestServer(t, Config{
			JournalDir: dir, TraceDir: traces,
			Watch: true, WatchRules: quietRules(),
			SweepInterval: 50 * time.Millisecond,
		})
		spec := mailboxSpec(7)
		spec.Workers = 1
		createCampaign(t, s.Addr(), CreateRequest{Name: "solo", Spec: spec})
		driveFixedRank(t, s.Addr(), "solo")
		if _, err := s.WaitCampaign(context.Background(), "solo"); err != nil {
			t.Fatalf("wait: %v", err)
		}
		return readJournalAlerts(t, filepath.Join(dir, "solo.jsonl")),
			filepath.Join(traces, "solo.trace.jsonl"), s, dir
	}

	alerts1, trace1, s1, _ := run()
	if want := []string{"solo/coverage_stall/r0/i3", "solo/coverage_stall/r0/i9"}; !reflect.DeepEqual(alertIDs(alerts1), want) {
		t.Fatalf("journaled alert IDs = %v, want %v", alertIDs(alerts1), want)
	}
	stalls := 0
	for _, a := range alerts1 {
		if a.Rule != watch.RuleCoverageStall {
			t.Fatalf("unexpected rule %q under quiet rules: %+v", a.Rule, a)
		}
		stalls++
	}
	if stalls == 0 {
		t.Fatal("no coverage_stall alert")
	}

	// Status and metrics surfaces reflect the alerts.
	resp, err := http.Get("http://" + s1.Addr() + "/v1/campaigns/solo")
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Watched || st.AlertsTotal < stalls {
		t.Errorf("status = watched %v alerts_total %d, want watched with >= %d", st.Watched, st.AlertsTotal, stalls)
	}
	mresp, err := http.Get("http://" + s1.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`symbfuzz_watch_alerts_total{campaign="solo"}`,
		`symbfuzz_watch_health_score{campaign="solo"}`,
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	snap := getSnapshot(t, s1.Addr())
	if len(snap.Campaigns) != 1 || snap.Campaigns[0].AlertsTotal < stalls {
		t.Errorf("snapshot = %+v, want campaign solo with the journaled alerts", snap.Campaigns)
	}
	if len(snap.Campaigns[0].Series) == 0 {
		t.Error("snapshot carries no series samples")
	}

	// Second identical run: the journaled alert ID sequence must match
	// exactly (IDs never carry wall-clock state).
	alerts2, _, _, _ := run()
	if !reflect.DeepEqual(alertIDs(alerts1), alertIDs(alerts2)) {
		t.Errorf("alert IDs diverged across identical runs:\n%v\n%v", alertIDs(alerts1), alertIDs(alerts2))
	}

	// The trace carries the alerts as typed spans and still validates.
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	data, err := os.ReadFile(trace1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(bytes.NewReader(data)); err != nil {
		t.Fatalf("trace with alert spans invalid: %v", err)
	}
	spanIDs := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		var ev obs.Event
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Kind == obs.SpanAlert {
			spanIDs[ev.Span] = true
			if ev.Rule == "" || ev.Severity == "" {
				t.Errorf("alert span %s missing rule/severity: %+v", ev.Span, ev)
			}
		}
	}
	for _, a := range alerts1 {
		if !spanIDs[a.ID] {
			t.Errorf("journaled alert %s has no alert span in the trace", a.ID)
		}
	}
}

// TestWatchRankDeadAndResumeSeeding pins the dead-rank detector and
// alert durability: a worker dying mid-shard raises rank_dead (fsynced
// into the journal before any shutdown), a resumed fleet re-seeds the
// engine so the still-expired lease does NOT re-raise under a fresh
// ID, and the campaign still completes.
func TestWatchRankDeadAndResumeSeeding(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := Config{
		JournalDir: dir, LeaseTTL: 300 * time.Millisecond,
		Watch: true, WatchRules: quietRules(),
		SweepInterval: 50 * time.Millisecond,
	}
	s1 := newTestServer(t, cfg)
	createCampaign(t, s1.Addr(), CreateRequest{Name: "camp", Spec: mailboxSpec(7)})

	// Rank 0's worker dies after two publishes; its lease expires and
	// the sweep must raise rank_dead.
	victimErr := dist.RunWorker(ctx, dist.WorkerConfig{
		Addr: s1.Addr(), Campaign: "camp", WorkerID: "victim", RankHint: 0, MaxRanks: 1,
		DieAfterPublishes: 2,
		Client:            testClient(s1.Addr(), 2),
	})
	if victimErr == nil {
		t.Fatal("victim worker did not die")
	}
	journal := filepath.Join(dir, "camp.jsonl")
	var deadID string
	waitFor(t, 5*time.Second, "rank_dead alert in journal", func() bool {
		for _, a := range readJournalAlerts(t, journal) {
			if a.Rule == watch.RuleRankDead && a.Lane == 0 {
				deadID = a.ID
				return true
			}
		}
		return false
	})
	if deadID != "camp/rank_dead/r0/i0" {
		t.Fatalf("rank_dead ID = %q", deadID)
	}
	// The alert is active on the snapshot surface too.
	snap := getSnapshot(t, s1.Addr())
	if len(snap.Campaigns) != 1 || len(snap.Campaigns[0].Alerts) == 0 {
		t.Fatalf("snapshot shows no active alert: %+v", snap.Campaigns)
	}

	// Restart the fleet. The journal already holds the alert (fsynced
	// at raise time — durability does not depend on this Shutdown).
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown s1: %v", err)
	}
	s2 := newTestServer(t, Config{
		JournalDir: dir, LeaseTTL: 300 * time.Millisecond, Resume: true,
		Watch: true, WatchRules: quietRules(),
		SweepInterval: 50 * time.Millisecond,
	})
	// The seeded engine reports the alert as active immediately, and
	// sweeps over the still-expired lease must not mint a second ID.
	snap = getSnapshot(t, s2.Addr())
	if len(snap.Campaigns) != 1 || snap.Campaigns[0].AlertsTotal < 1 {
		t.Fatalf("resumed snapshot lost the alert: %+v", snap.Campaigns)
	}
	found := false
	for _, a := range snap.Campaigns[0].Alerts {
		if a.ID == deadID {
			found = true
		}
	}
	if !found {
		t.Errorf("resumed snapshot active alerts %+v missing %s", snap.Campaigns[0].Alerts, deadID)
	}
	time.Sleep(300 * time.Millisecond) // several sweeps over the dead lease
	var deads []string
	for _, a := range readJournalAlerts(t, journal) {
		if a.Rule == watch.RuleRankDead {
			deads = append(deads, a.ID)
		}
	}
	if len(deads) != 1 || deads[0] != deadID {
		t.Fatalf("rank_dead journaled %v after resume, want exactly [%s]", deads, deadID)
	}

	// Replacement workers drain both ranks; the campaign completes.
	runWorkers(t, s2.Addr(), "camp", 2, 50)
	if _, err := s2.WaitCampaign(ctx, "camp"); err != nil {
		t.Fatalf("campaign after resume: %v", err)
	}
}

// TestWatchSnapshotReadPath pins the watch plane's one read path: with
// the plane on, /v1/watch/snapshot serves the health snapshot itself
// (no wrapper fields), the retired /v1/watch stream answers 404, and
// Shutdown returns promptly with the sweep running.
func TestWatchSnapshotReadPath(t *testing.T) {
	s := newTestServer(t, Config{
		Watch: true, WatchRules: quietRules(),
		SweepInterval: 30 * time.Millisecond,
	})
	spec := mailboxSpec(7)
	spec.Workers = 1
	createCampaign(t, s.Addr(), CreateRequest{Name: "camp", Spec: spec})

	resp, err := http.Get("http://" + s.Addr() + "/v1/watch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("/v1/watch with watch enabled: status %d, want 404", resp.StatusCode)
	}

	waitFor(t, 3*time.Second, "camp in the snapshot", func() bool {
		snap := getSnapshot(t, s.Addr())
		return len(snap.Campaigns) == 1 && snap.Campaigns[0].Campaign == "camp"
	})
	resp, err = http.Get("http://" + s.Addr() + "/v1/watch/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("snapshot decode: %v: %s", err, body)
	}
	if len(doc) != 1 || doc["campaigns"] == nil {
		t.Errorf("snapshot keys = %s, want only campaigns", body)
	}

	done := make(chan error, 1)
	go func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		done <- s.Shutdown(sctx)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown did not return with the watch plane on")
	}
}

// TestWatchDisabledSurface pins the disabled state: watch endpoints
// 404, statuses carry no health fields, and /metrics exports no watch
// instruments — byte-compatible with a watch-less fleet.
func TestWatchDisabledSurface(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := mailboxSpec(7)
	spec.Workers = 1
	createCampaign(t, s.Addr(), CreateRequest{Name: "camp", Spec: spec})

	for _, path := range []string{"/v1/watch", "/v1/watch/snapshot"} {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("%s with watch disabled: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get("http://" + s.Addr() + "/v1/campaigns/camp")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "watched") || strings.Contains(string(body), "health_score") {
		t.Errorf("disabled status leaks watch fields: %s", body)
	}
	mresp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if strings.Contains(string(mbody), "watch_") {
		t.Errorf("disabled /metrics exports watch instruments:\n%s", mbody)
	}
}

// TestAdmissionRejectionMetrics pins the always-on fleet-level
// admission counters: campaign, rank, batch and byte rejections each
// land on their unlabeled counter on /metrics.
func TestAdmissionRejectionMetrics(t *testing.T) {
	s := newTestServer(t, Config{Quota: Quota{MaxCampaigns: 1, MaxWorkers: 2, QueueBytes: 1}})
	post := func(req CreateRequest) int {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post("http://"+s.Addr()+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(CreateRequest{Name: "../bad", Spec: mailboxSpec(7)}); code != 400 {
		t.Fatalf("invalid name: %d", code)
	}
	big := mailboxSpec(7)
	big.Workers = 4
	if code := post(CreateRequest{Name: "big", Spec: big}); code != 400 {
		t.Fatalf("over-quota ranks: %d", code)
	}
	if code := post(CreateRequest{Name: "a", Spec: mailboxSpec(7)}); code != 201 {
		t.Fatalf("create a: %d", code)
	}
	if code := post(CreateRequest{Name: "b", Spec: mailboxSpec(11)}); code != 429 {
		t.Fatalf("at capacity: %d", code)
	}
	// A batch over the 1-byte queue budget is rejected and its bytes
	// counted.
	breq, _ := json.Marshal(dist.BatchRequest{Campaign: "a"})
	bresp, err := http.Post("http://"+s.Addr()+"/v1/batch", "application/json", bytes.NewReader(breq))
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != 429 {
		t.Fatalf("byte-budget batch: %d, want 429", bresp.StatusCode)
	}

	mresp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"symbfuzz_fleet_admission_rejected_campaigns_total 2",
		"symbfuzz_fleet_admission_rejected_ranks_total 1",
		"symbfuzz_fleet_admission_rejected_batches_total 1",
		"symbfuzz_fleet_campaigns_hosted 1",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q:\n%s", want, mbody)
		}
	}
	if !strings.Contains(string(mbody), "symbfuzz_fleet_admission_rejected_bytes_total") ||
		strings.Contains(string(mbody), "symbfuzz_fleet_admission_rejected_bytes_total 0") {
		t.Errorf("byte-rejection counter missing or zero:\n%s", mbody)
	}
}
