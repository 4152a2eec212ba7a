package dist

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/watch"
)

// CoordConfig parameterizes one campaign's coordinator-side state.
type CoordConfig struct {
	Spec CampaignSpec

	// Name is the fleet campaign name this state serves under (empty
	// for the implicit campaign of `symbfuzz -serve`). It is journaled
	// so a fleet resume can sanity-check the file it picked up.
	Name string

	// LeaseTTL is how long a rank lease survives without a heartbeat
	// or batch before the rank becomes claimable by another worker
	// (default 5s).
	LeaseTTL time.Duration

	// JournalPath, when set, appends completed-rank reports to an
	// append-only JSONL journal; Resume replays an existing journal so
	// a restarted coordinator keeps the ranks that already finished.
	JournalPath string
	Resume      bool

	// CompactBytes is the journal size past which the coordinator
	// rewrites the file down to its live state (the campaign record
	// plus the last report per rank), keeping resume O(live state)
	// instead of O(appended history). 0 means the 1 MiB default;
	// negative disables compaction.
	CompactBytes int64

	// Obs receives campaign telemetry: the coordinator emits
	// campaign_start/campaign_end on the campaign lane and re-emits
	// each rank's worker-lane event stream verbatim when its report
	// arrives, so the resulting trace validates like an in-process
	// parallel campaign's.
	Obs *obs.Observer

	// StopAtPoints arms the frontier's opt-in time-to-target stop
	// (propagated to workers through batch and heartbeat responses).
	// Leave unset for deterministic fixed-budget runs.
	StopAtPoints int

	// OnPublish, when set, observes every applied coverage publish:
	// the rank, its delta sequence (0 for final reports), the rank's
	// cumulative vectors, and the global frontier point count after
	// the merge. The fleet's watch plane synthesizes interval samples
	// from it. Must not block.
	OnPublish func(rank int, seq uint64, vectors uint64, points int)
	// OnSolve, when set, observes every live solve a rank ships on
	// /v1/batch: the solving rank, the target (cluster graph, node),
	// the outcome string, and the solve wall time. Must not block.
	OnSolve func(rank, graph, to int, outcome string, ns int64)
}

// specEqual compares campaign specs field by field (CampaignSpec
// holds a slice, so == does not apply).
func specEqual(a, b CampaignSpec) bool {
	if len(a.Props) != len(b.Props) {
		return false
	}
	for i := range a.Props {
		if a.Props[i] != b.Props[i] {
			return false
		}
	}
	return a.Bench == b.Bench && a.Fixed == b.Fixed &&
		a.Source == b.Source && a.Top == b.Top &&
		a.Interval == b.Interval && a.Threshold == b.Threshold &&
		a.MaxVectors == b.MaxVectors && a.Seed == b.Seed &&
		a.Workers == b.Workers && a.UseSnapshots == b.UseSnapshots &&
		a.ContinueAfterCoverage == b.ContinueAfterCoverage &&
		a.DisableSlicing == b.DisableSlicing &&
		a.Profile == b.Profile &&
		a.SimBackend == b.SimBackend
}

// specConfig builds rank's engine configuration from the campaign
// spec — the exact recipe par.RunContext uses for its in-process
// workers, which is what makes the merged reports agree.
func specConfig(s CampaignSpec, rank int) core.Config {
	wc := core.Config{
		Interval:              s.Interval,
		Threshold:             s.Threshold,
		MaxVectors:            s.MaxVectors,
		Seed:                  par.WorkerSeed(s.Seed, rank),
		SharedSeed:            s.Seed,
		UseSnapshots:          s.UseSnapshots,
		ContinueAfterCoverage: s.ContinueAfterCoverage,
		DisableSlicing:        s.DisableSlicing,
		SimBackend:            s.SimBackend,
		SimProfile:            s.Profile,
	}
	if s.Workers > 1 {
		wc.Shard = core.ShardSpec{Rank: rank, Workers: s.Workers}
	}
	return wc
}

// CampaignState is one campaign's complete coordinator-side state
// machine, independent of any HTTP host (internal/fleet routes wire
// requests into it): the global frontier, the lease table, the batch
// sequence tracking, the journal, and the finalize-once merged-report
// builder. It builds no engine: the ranks' coverage and reports carry
// everything the frontier and the merge read.
// All methods take decoded wire requests and return wire responses;
// HTTP status mapping is the host's job (methods that can reject
// return *HTTPError).
type CampaignState struct {
	cfg        CoordConfig
	spec       CampaignSpec
	campaignID string

	fr    *par.Frontier
	jr    *journal
	start time.Time

	mu     sync.Mutex
	leases map[int]*lease
	done   map[int]*rankResult
	// pubSeq is the highest applied batch-delta sequence per rank;
	// duplicates at or below it are skipped (idempotent redelivery).
	pubSeq map[int]uint64
	// vectors is the latest cumulative vector count per rank (from
	// heartbeats and batch deltas) — status annotation only.
	vectors  map[int]uint64
	doneCh   chan struct{}
	ended    bool
	solverNS int64

	// graphs is the cluster-graph count every delta and report must
	// carry, and static the report whose graph totals every later
	// report must match: both are pinned by the first accepted one
	// (graphs -1 until then). See pinShape.
	graphs int
	static *core.Report

	// alertIDs dedups journaled watch alerts (seeded from replay);
	// replayedAlerts are the prior incarnation's alerts in journal
	// order. alertsClosed is set when finalization begins so no alert
	// span can land after the trace's campaign_end.
	alertIDs       map[string]bool
	replayedAlerts []watch.Alert
	alertsClosed   bool

	finalOnce sync.Once
	finalRep  *par.Report
	finalErr  error
}

// rankResult is a completed rank: its report, final coverage
// snapshot, and telemetry lane.
type rankResult struct {
	report *core.Report
	cov    *cov.CFGCov
	events []obs.Event
}

// lease is one live rank assignment.
type lease struct {
	worker  string
	expires time.Time
}

// HTTPError carries the HTTP status a state-machine rejection maps to.
type HTTPError struct {
	Code int
	Msg  string
}

func (e *HTTPError) Error() string { return e.Msg }

// NewCampaignState validates the spec (its benchmark and properties
// must resolve and its design must elaborate — better to fail here
// than on every worker) and replays the journal when resuming. It does
// not bind any listener; hosts route requests in.
func NewCampaignState(c CoordConfig) (*CampaignState, error) {
	if c.Spec.Workers < 1 {
		c.Spec.Workers = 1
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 5 * time.Second
	}

	bench, _, err := ResolveSpec(c.Spec)
	if err != nil {
		return nil, err
	}
	if _, err := bench.Elaborate(); err != nil {
		return nil, err
	}

	cs := &CampaignState{
		cfg:        c,
		spec:       c.Spec,
		campaignID: fmt.Sprintf("%s-w%d-seed%d", bench.Name, c.Spec.Workers, c.Spec.Seed),
		leases:     map[int]*lease{},
		done:       map[int]*rankResult{},
		pubSeq:     map[int]uint64{},
		vectors:    map[int]uint64{},
		alertIDs:   map[string]bool{},
		doneCh:     make(chan struct{}),
		graphs:     -1,
	}
	cs.fr = par.NewFrontier(c.Spec.Workers, c.StopAtPoints, c.Obs)

	var replayed *journalState
	if c.JournalPath != "" && c.Resume {
		replayed, err = replayJournal(c.JournalPath)
		if err != nil {
			return nil, err
		}
		if replayed.Spec != nil && !specEqual(*replayed.Spec, c.Spec) {
			return nil, fmt.Errorf("dist: journal %s was written by a different campaign spec", c.JournalPath)
		}
		ranks := make([]int, 0, len(replayed.Reports))
		for rank := range replayed.Reports {
			ranks = append(ranks, rank)
		}
		sort.Ints(ranks)
		for _, rank := range ranks {
			if rank < 0 || rank >= c.Spec.Workers {
				continue
			}
			rec := replayed.Reports[rank]
			if herr := cs.pinShape(rec.Report, *rec.Coverage); herr != nil {
				return nil, fmt.Errorf("dist: journal %s: %s", c.JournalPath, herr.Msg)
			}
			cv := CovFromWire(*rec.Coverage)
			cs.done[rank] = &rankResult{report: rec.Report, cov: cv, events: rec.Events}
			cs.fr.Publish(rank, cv, rec.Report.Vectors)
			cs.meterRank(rec.Report)
		}
		if len(cs.done) == c.Spec.Workers {
			cs.ended = true
			close(cs.doneCh)
		}
		cs.replayedAlerts = replayed.Alerts
		for _, a := range replayed.Alerts {
			cs.alertIDs[a.ID] = true
		}
	}
	if c.JournalPath != "" {
		cs.jr, err = openJournal(c.JournalPath, c.CompactBytes)
		if err != nil {
			return nil, err
		}
		cs.jr.seed(replayed)
		if err := cs.jr.append(journalRecord{Kind: "campaign", CampaignID: cs.campaignID, Name: c.Name, Spec: &cs.spec}); err != nil {
			return nil, err
		}
	}
	cs.start = time.Now()
	c.Obs.CampaignStart(0, 0)
	return cs, nil
}

// ID returns the campaign identity string workers see on join.
func (cs *CampaignState) ID() string { return cs.campaignID }

// Spec returns the campaign spec.
func (cs *CampaignState) Spec() CampaignSpec { return cs.spec }

// Done is closed once every rank has reported.
func (cs *CampaignState) Done() <-chan struct{} { return cs.doneCh }

// ForceStop trips the frontier stop signal: workers stop at their
// next boundary and deliver partial reports.
func (cs *CampaignState) ForceStop() { cs.fr.ForceStop() }

// SolverNS returns the cumulative solver wall time (blast + CDCL) of
// the live solves ranks have shipped on /v1/batch — the admission
// layer's solver-seconds meter. A rank ships each live solve once (a
// plan-cache hit ships nothing), so it counts once. A single-rank
// campaign has no plan cache and ships no solves; its meter reads the
// rank's report when it is accepted (meterRank).
func (cs *CampaignState) SolverNS() int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.solverNS
}

// meterRank feeds a single-rank campaign's solver meter from the
// accepted (or replayed) rank report's solve totals. Multi-rank
// campaigns meter their shipped solves instead, so this is a no-op
// for them.
func (cs *CampaignState) meterRank(rep *core.Report) {
	if cs.spec.Workers == 1 {
		cs.addSolverNS(rep.Timings.Solve.BlastNS + rep.Timings.Solve.CDCLNS)
	}
}

func (cs *CampaignState) addSolverNS(ns int64) {
	if ns <= 0 {
		return
	}
	cs.mu.Lock()
	cs.solverNS += ns
	cs.mu.Unlock()
}

// ---- watch-alert durability ----

// AppendAlert journals one watch alert (fsynced, like rank reports —
// an alert the operator acted on must not vanish in a crash) and folds
// it into the campaign trace as a typed span. Idempotent by alert ID:
// a condition re-derived after a resume whose alert was already
// journaled is a no-op, which is exactly what makes alert IDs stable
// across kill -9 + -resume.
func (cs *CampaignState) AppendAlert(a watch.Alert) error {
	cs.mu.Lock()
	if cs.alertIDs[a.ID] {
		cs.mu.Unlock()
		return nil
	}
	cs.alertIDs[a.ID] = true
	cs.mu.Unlock()
	if err := cs.jr.append(journalRecord{Kind: "alert", Alert: &a}); err != nil {
		return err
	}
	cs.EmitAlertSpan(a)
	return nil
}

// EmitAlertSpan folds one alert into the campaign trace. It holds the
// state mutex while emitting and finalize marks alertsClosed under the
// same mutex before it emits campaign_end, so an alert span can never
// land after the trace's terminal event.
func (cs *CampaignState) EmitAlertSpan(a watch.Alert) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.alertsClosed {
		return
	}
	cs.cfg.Obs.AlertSpan(a.ID, a.Rule, a.Severity, a.Msg)
}

// ReplayedAlerts returns the alerts recovered from the journal on
// resume, in journal order — the fleet seeds its health engine and the
// fresh trace from them.
func (cs *CampaignState) ReplayedAlerts() []watch.Alert {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]watch.Alert, len(cs.replayedAlerts))
	copy(out, cs.replayedAlerts)
	return out
}

// DeadRanks returns the ranks whose lease has expired without a
// report — the watch sweep's dead-rank feed. A rank with no lease at
// all is not dead, just unclaimed.
func (cs *CampaignState) DeadRanks() []int {
	now := time.Now()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var out []int
	for r := 0; r < cs.spec.Workers; r++ {
		if cs.done[r] != nil {
			continue
		}
		if l := cs.leases[r]; l != nil && now.After(l.expires) {
			out = append(out, r)
		}
	}
	return out
}

// ---- wire-request state machine ----

// Join answers a handshake.
func (cs *CampaignState) Join(req JoinRequest) (JoinResponse, *HTTPError) {
	if req.Proto != ProtoVersion {
		return JoinResponse{}, &HTTPError{Code: 400, Msg: fmt.Sprintf(
			"protocol version mismatch: coordinator speaks v%d, worker %q speaks v%d — rebuild the worker from the same revision",
			ProtoVersion, req.WorkerID, req.Proto)}
	}
	return JoinResponse{Proto: ProtoVersion, CampaignID: cs.campaignID, Spec: cs.spec, Batch: true}, nil
}

// Lease claims a shard rank for a worker.
func (cs *CampaignState) Lease(req LeaseRequest) LeaseResponse {
	now := time.Now()
	cs.mu.Lock()
	defer cs.mu.Unlock()

	if len(cs.done) == cs.spec.Workers {
		return LeaseResponse{Rank: -1, Done: true}
	}
	claimable := func(rank int) bool {
		if cs.done[rank] != nil {
			return false
		}
		l := cs.leases[rank]
		return l == nil || now.After(l.expires) || l.worker == req.WorkerID
	}
	rank := -1
	if req.Rank >= 0 && req.Rank < cs.spec.Workers && claimable(req.Rank) {
		rank = req.Rank
	} else {
		for r := 0; r < cs.spec.Workers; r++ {
			if claimable(r) {
				rank = r
				break
			}
		}
	}
	if rank < 0 {
		return LeaseResponse{Rank: -1, RetryMS: cs.cfg.LeaseTTL.Milliseconds() / 2}
	}
	cs.leases[rank] = &lease{worker: req.WorkerID, expires: now.Add(cs.cfg.LeaseTTL)}
	return LeaseResponse{
		Rank:  rank,
		Seed:  par.WorkerSeed(cs.spec.Seed, rank),
		TTLMS: cs.cfg.LeaseTTL.Milliseconds(),
	}
}

// renewLease extends worker's lease on rank, adopting ownerless ranks:
// after a coordinator restart the lease table is empty, so the first
// heartbeat or batch from a surviving worker re-establishes its
// claim. Returns false when the rank is finished or owned by another
// live worker — the caller must abandon it.
func (cs *CampaignState) renewLease(worker string, rank int) bool {
	if rank < 0 || rank >= cs.spec.Workers {
		return false
	}
	now := time.Now()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.done[rank] != nil {
		return false
	}
	l := cs.leases[rank]
	if l != nil && l.worker != worker && now.Before(l.expires) {
		return false
	}
	cs.leases[rank] = &lease{worker: worker, expires: now.Add(cs.cfg.LeaseTTL)}
	return true
}

// Heartbeat renews a lease and reports the stop signal.
func (cs *CampaignState) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	ok := cs.renewLease(req.WorkerID, req.Rank)
	if ok && req.Vectors > 0 {
		cs.mu.Lock()
		if req.Vectors > cs.vectors[req.Rank] {
			cs.vectors[req.Rank] = req.Vectors
		}
		cs.mu.Unlock()
	}
	return HeartbeatResponse{OK: ok, Stop: cs.fr.ShouldStop()}
}

// ApplyBatch applies a batched fire-and-forget message: coverage
// deltas in sequence order (skipping already-applied sequences) and
// the ranks' solve records. Resync is set when the first delta the
// coordinator sees from a rank has seq > 1 — a restarted coordinator
// lost that rank's earlier deltas and asks for a full fold-in. A
// batch whose deltas disagree with the campaign's graph count is
// rejected whole (400) before anything is applied.
func (cs *CampaignState) ApplyBatch(req BatchRequest) (BatchResponse, *HTTPError) {
	for _, p := range req.Publishes {
		if herr := cs.pinShape(nil, p.Delta); herr != nil {
			return BatchResponse{}, herr
		}
	}
	resp := BatchResponse{Stop: cs.fr.ShouldStop()}
	if !cs.renewLease(req.WorkerID, req.Rank) {
		return resp, nil
	}
	resp.OK = true

	cs.mu.Lock()
	applied := cs.pubSeq[req.Rank]
	cs.mu.Unlock()
	for _, p := range req.Publishes {
		if p.Seq <= applied {
			continue
		}
		if applied == 0 && p.Seq > 1 {
			resp.Resync = true
		}
		cs.fr.Publish(req.Rank, CovFromWire(p.Delta), p.Vectors)
		applied = p.Seq
		cs.mu.Lock()
		if p.Vectors > cs.vectors[req.Rank] {
			cs.vectors[req.Rank] = p.Vectors
		}
		cs.mu.Unlock()
		if cs.cfg.OnPublish != nil {
			cs.cfg.OnPublish(req.Rank, p.Seq, p.Vectors, cs.fr.Points())
		}
	}
	cs.mu.Lock()
	if applied > cs.pubSeq[req.Rank] {
		cs.pubSeq[req.Rank] = applied
	}
	cs.mu.Unlock()

	for _, s := range req.Stores {
		ns := s.Stats.BlastNS + s.Stats.SolveNS
		cs.addSolverNS(ns)
		if cs.cfg.OnSolve != nil {
			cs.cfg.OnSolve(req.Rank, s.Key.Graph, s.Key.To, s.Stats.Outcome, ns)
		}
	}

	resp.AckSeq = applied
	resp.Stop = cs.fr.ShouldStop()
	return resp, nil
}

// pinShape checks a rank's coverage (and, for a final report, its
// static graph totals) against the shape the first accepted delta or
// report pinned, pinning it on first use. Every rank builds the same
// partition from the same spec, so a disagreement means a rank built
// a different design: its graphs would be silently dropped or
// misaligned in the frontier and the merge, so it is rejected instead.
func (cs *CampaignState) pinShape(rep *core.Report, w CovWire) *HTTPError {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	graphs := cs.graphs
	if graphs < 0 {
		graphs = len(w.Nodes)
	}
	if len(w.Nodes) != graphs || len(w.Edges) != graphs {
		return &HTTPError{Code: 400, Msg: fmt.Sprintf(
			"rank coverage has %d/%d node/edge graphs; the campaign has %d", len(w.Nodes), len(w.Edges), graphs)}
	}
	if st := cs.static; rep != nil && st != nil && (rep.GraphStats != st.GraphStats ||
		rep.NodesTotal != st.NodesTotal || rep.EdgesTotal != st.EdgesTotal) {
		return &HTTPError{Code: 400, Msg: fmt.Sprintf(
			"rank report graph %+v (%d nodes, %d edges) differs from the campaign's %+v (%d nodes, %d edges)",
			rep.GraphStats, rep.NodesTotal, rep.EdgesTotal, st.GraphStats, st.NodesTotal, st.EdgesTotal)}
	}
	cs.graphs = graphs
	if rep != nil && cs.static == nil {
		cs.static = rep
	}
	return nil
}

// Report accepts a rank's final report. The journal write happens
// before the ack: once the worker sees OK it will never redeliver, so
// the record must be durable first.
func (cs *CampaignState) Report(req ReportRequest) (ReportResponse, *HTTPError) {
	if req.Rank < 0 || req.Rank >= cs.spec.Workers {
		return ReportResponse{}, &HTTPError{Code: 400, Msg: fmt.Sprintf("rank %d out of range", req.Rank)}
	}

	cs.mu.Lock()
	if cs.done[req.Rank] != nil {
		// Duplicate delivery: the worker retried a report the previous
		// coordinator incarnation already journaled. Ack idempotently.
		n := len(cs.done)
		cs.mu.Unlock()
		return ReportResponse{OK: true, Done: n == cs.spec.Workers}, nil
	}
	l := cs.leases[req.Rank]
	if l != nil && l.worker != req.WorkerID && time.Now().Before(l.expires) {
		cs.mu.Unlock()
		return ReportResponse{OK: false}, nil
	}
	cs.mu.Unlock()

	rep := req.Report
	if herr := cs.pinShape(&rep, req.Coverage); herr != nil {
		return ReportResponse{}, herr
	}
	if err := cs.jr.append(journalRecord{
		Kind: "report", Rank: req.Rank,
		Report: &rep, Coverage: &req.Coverage, Events: req.Events,
	}); err != nil {
		return ReportResponse{}, &HTTPError{Code: 500, Msg: err.Error()}
	}

	cv := CovFromWire(req.Coverage)
	cs.fr.Publish(req.Rank, cv, rep.Vectors)
	cs.meterRank(&rep)

	if cs.cfg.OnPublish != nil {
		cs.cfg.OnPublish(req.Rank, 0, rep.Vectors, cs.fr.Points())
	}

	cs.mu.Lock()
	cs.done[req.Rank] = &rankResult{report: &rep, cov: cv, events: req.Events}
	delete(cs.leases, req.Rank)
	n := len(cs.done)
	if n == cs.spec.Workers && !cs.ended {
		cs.ended = true
		close(cs.doneCh)
	}
	cs.mu.Unlock()
	return ReportResponse{OK: true, Done: n == cs.spec.Workers}, nil
}

// ---- finalization ----

// Finalize merges the completed ranks by rank and builds the campaign
// report — structurally the same par.Report an in-process campaign
// produces. It runs at most once (telemetry re-emission must not
// duplicate); later calls return the first result. Interrupted marks
// a merge over a partial rank set.
func (cs *CampaignState) Finalize(interrupted bool) (*par.Report, error) {
	cs.finalOnce.Do(func() {
		cs.finalRep, cs.finalErr = cs.finalize(interrupted)
	})
	return cs.finalRep, cs.finalErr
}

func (cs *CampaignState) finalize(interrupted bool) (*par.Report, error) {
	cs.mu.Lock()
	// From here on the trace is closing: campaign_end must be the
	// lane's last event, so no further alert span may be emitted.
	cs.alertsClosed = true
	ranks := make([]int, 0, len(cs.done))
	for r := 0; r < cs.spec.Workers; r++ {
		if cs.done[r] != nil {
			ranks = append(ranks, r)
		}
	}
	covs := make([]*cov.CFGCov, 0, len(ranks))
	reports := make([]*core.Report, 0, len(ranks))
	var events []obs.Event
	for _, r := range ranks {
		covs = append(covs, cs.done[r].cov)
		reports = append(reports, cs.done[r].report)
		events = append(events, cs.done[r].events...)
	}
	cs.mu.Unlock()

	if len(reports) == 0 {
		return nil, fmt.Errorf("dist: campaign interrupted before any rank completed")
	}

	merged := par.MergeReports(covs, reports)
	if interrupted {
		merged.Interrupted = true
	}

	// Fold each completed rank's telemetry lane into the campaign
	// trace, in rank order. Events are re-emitted verbatim (they carry
	// the worker's own stamps), so each lane stays monotonic even when
	// a replacement worker produced it.
	o := cs.cfg.Obs
	for i := range events {
		o.EmitRaw(&events[i])
	}
	par.FinalizeMetrics(o, merged)
	o.Cycles(merged.Cycles)
	o.CampaignEnd(merged.Vectors, merged.FinalPoints)

	out := &par.Report{
		Workers:        cs.spec.Workers,
		Merged:         merged,
		WallNS:         int64(time.Since(cs.start)),
		TargetPoints:   cs.cfg.StopAtPoints,
		TimeToTargetNS: cs.fr.TimeToTargetNS(),
		CacheHits:      int64(merged.SolveCacheHits),
		CacheMisses:    int64(merged.SolveCacheMisses),
		Curve:          cs.fr.Curve(),
	}
	for r := 0; r < cs.spec.Workers; r++ {
		out.Seeds = append(out.Seeds, par.WorkerSeed(cs.spec.Seed, r))
	}
	// PerWorker is indexed by rank; interrupted campaigns may have
	// holes (nil) for ranks that never reported.
	out.PerWorker = make([]*core.Report, cs.spec.Workers)
	cs.mu.Lock()
	for _, r := range ranks {
		out.PerWorker[r] = cs.done[r].report
	}
	cs.mu.Unlock()
	return out, nil
}

// Status is a point-in-time campaign summary for the fleet control
// surface.
type Status struct {
	Campaign   string `json:"campaign,omitempty"`
	CampaignID string `json:"campaign_id"`
	Workers    int    `json:"workers"`
	RanksDone  int    `json:"ranks_done"`
	Leased     int    `json:"leased"`
	Vectors    uint64 `json:"vectors"`
	Points     int    `json:"points"`
	Done       bool   `json:"done"`
	SolverNS   int64  `json:"solver_ns"`
	UptimeNS   int64  `json:"uptime_ns"`

	// Watch-engine health annotation, populated by hosts running the
	// watch plane (Watched marks the fields as live — a
	// 0 score on an unwatched campaign means "not scored").
	Watched      bool `json:"watched,omitempty"`
	HealthScore  int  `json:"health_score,omitempty"`
	AlertsActive int  `json:"alerts_active,omitempty"`
	AlertsTotal  int  `json:"alerts_total,omitempty"`
}

// Status snapshots the campaign's progress.
func (cs *CampaignState) Status() Status {
	now := time.Now()
	cs.mu.Lock()
	leased := 0
	for _, l := range cs.leases {
		if now.Before(l.expires) {
			leased++
		}
	}
	var vectors uint64
	ranks := make([]int, 0, len(cs.vectors))
	for r := range cs.vectors {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		vectors += cs.vectors[r]
	}
	st := Status{
		Campaign:   cs.cfg.Name,
		CampaignID: cs.campaignID,
		Workers:    cs.spec.Workers,
		RanksDone:  len(cs.done),
		Leased:     leased,
		Vectors:    vectors,
		Points:     cs.fr.Points(),
		Done:       cs.ended,
		SolverNS:   cs.solverNS,
		UptimeNS:   int64(now.Sub(cs.start)),
	}
	cs.mu.Unlock()
	return st
}

// CloseJournal closes the journal file (safe on nil journal).
func (cs *CampaignState) CloseJournal() error { return cs.jr.Close() }
