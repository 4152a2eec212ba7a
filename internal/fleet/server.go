// Package fleet is the campaign coordinator: one process hosting one
// or many campaigns behind the v4 wire protocol. Each campaign keeps
// its own frontier, lease table, journal and metrics registry — a
// dist.CampaignState — and every worker RPC carries a campaign name
// that routes it to the right state machine. An empty name routes to
// the sole hosted campaign, which is how `symbfuzz -serve` runs: a
// fleet hosting one implicit, unnamed campaign (Server.Host).
//
// Around the state machines the fleet adds:
//
//   - Admission control: campaign names are validated, campaign count
//     and per-campaign rank count are capped, and a full ingest queue
//     answers 429 with Retry-After instead of buffering unboundedly.
//     Workers already treat 429 as a retryable backoff signal, so
//     backpressure degrades throughput, never correctness.
//   - Bounded ingest: batched publishes and solve records flow
//     through one bounded queue per campaign, drained by one goroutine
//     per campaign — so a noisy campaign saturates its own queue and
//     its own drainer, not its neighbours'.
//   - Budget enforcement: a campaign that exhausts its solver-seconds
//     budget is force-stopped; its workers stop at the next interval
//     boundary and deliver partial reports, exactly like a ctrl-C.
//   - A control surface (/v1/campaigns) to create, list, inspect,
//     fetch reports from, and cancel campaigns, plus a /metrics
//     endpoint exporting every campaign's registry under a
//     campaign="<name>" label.
//
// Determinism is inherited, not re-proven: every CampaignState merges
// by rank through trajectory-neutral interfaces, so each campaign's
// merged report stays byte-identical to the equivalent in-process
// -workers run, regardless of what the other campaigns on the process
// are doing.
package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/watch"
)

// nameRE validates campaign names: they become journal file names and
// metric label values, so the alphabet is deliberately narrow.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,64}$`)

// Quota is the fleet admission policy. Zero fields take defaults;
// there is no "unlimited" campaign count or queue — a fleet without
// bounds is a single tenant away from OOM.
type Quota struct {
	// MaxCampaigns caps concurrently hosted campaigns (default 16).
	MaxCampaigns int
	// MaxWorkers caps a single campaign's rank count (default 64).
	MaxWorkers int
	// QueueDepth bounds each campaign's ingest queue in batches
	// (default 64). A full queue answers 429 + Retry-After.
	QueueDepth int
	// QueueBytes bounds each campaign's queued request bytes
	// (default 8 MiB). Exceeding it answers 429 + Retry-After.
	QueueBytes int64
	// SolverBudgetNS force-stops a campaign once its accumulated
	// solver wall time (blast + CDCL across all ranks) passes the
	// budget. 0 means unlimited.
	SolverBudgetNS int64
}

func (q Quota) withDefaults() Quota {
	if q.MaxCampaigns <= 0 {
		q.MaxCampaigns = 16
	}
	if q.MaxWorkers <= 0 {
		q.MaxWorkers = 64
	}
	if q.QueueDepth <= 0 {
		q.QueueDepth = 64
	}
	if q.QueueBytes <= 0 {
		q.QueueBytes = 8 << 20
	}
	return q
}

// Config parameterizes a fleet server.
type Config struct {
	// JournalDir, when set, gives every campaign a journal at
	// <dir>/<name>.jsonl. Resume re-admits each journaled campaign at
	// startup (the journal's campaign record carries its spec).
	JournalDir string
	Resume     bool

	// TraceDir, when set, writes every campaign's merged multi-rank
	// event trace to <dir>/<name>.trace.jsonl at finalization. Rank
	// events ride the report wire (and the journal), so the trace is
	// complete even across worker replacement and fleet restart — a
	// resumed campaign rewrites the file whole.
	TraceDir string

	// LeaseTTL and CompactBytes apply to every hosted campaign
	// (dist.CoordConfig semantics).
	LeaseTTL     time.Duration
	CompactBytes int64

	Quota Quota

	// DrainDelay artificially slows each campaign's queue drainer —
	// a test hook for forcing 429 backpressure deterministically.
	DrainDelay time.Duration

	// Watch enables the health plane: the deterministic health
	// engine, journaled alerts, /v1/watch/snapshot, and the periodic
	// sweep. Disabled (the default), the fleet runs byte-identically to
	// a watch-less build — no hooks installed, no extra goroutine, no
	// extra metrics on /metrics beyond the always-on admission
	// counters.
	Watch bool
	// WatchRules tunes the health engine's thresholds (zero fields take
	// watch.Rules defaults). Ignored unless Watch is set.
	WatchRules watch.Rules
	// SweepInterval paces the watch sweep (default 500ms) — a test
	// hook, like DrainDelay.
	SweepInterval time.Duration
}

// CreateRequest is the body of POST /v1/campaigns.
type CreateRequest struct {
	Name         string            `json:"name"`
	Spec         dist.CampaignSpec `json:"spec"`
	StopAtPoints int               `json:"stop_at_points,omitempty"`
}

// CampaignStatus augments a campaign's state-machine status with the
// fleet's queue and admission counters.
type CampaignStatus struct {
	dist.Status
	QueueDepth  int   `json:"queue_depth"`
	QueueBytes  int64 `json:"queue_bytes"`
	Batches     int64 `json:"batches"`
	Rejected429 int64 `json:"rejected_429"`
	Dropped     int64 `json:"dropped"`
	Cancelled   bool  `json:"cancelled,omitempty"`
	BudgetStop  bool  `json:"budget_stop,omitempty"`
}

// FleetStatus is the GET /v1/fleet rollup: everything `fuzzreport
// -fleet` and fuzzctl's list view need in one response.
type FleetStatus struct {
	Campaigns []CampaignStatus `json:"campaigns"`
	UptimeNS  int64            `json:"uptime_ns"`
}

// ListResponse is the body of GET /v1/campaigns.
type ListResponse struct {
	Campaigns []CampaignStatus `json:"campaigns"`
}

// campaign is one hosted campaign: its state machine, its bounded
// ingest queue, and its pre-bound fleet instruments.
type campaign struct {
	name string
	cs   *dist.CampaignState
	reg  *obs.Registry
	// obs is the campaign observer when the fleet created it (closed
	// on Shutdown); nil when a Host caller owns the observer.
	obs *obs.Observer

	queue       chan ingest
	queuedBytes atomic.Int64
	cancelled   atomic.Bool
	budgetStop  atomic.Bool

	gDepth   *obs.Gauge
	gBytes   *obs.Gauge
	cBatches *obs.Counter
	c429     *obs.Counter
	cDropped *obs.Counter
	hBytes   *obs.Histogram // delta-batch sizes (request bytes)
	hDeltas  *obs.Histogram // publishes coalesced per batch

	// watch is the fleet's health engine when the watch plane is
	// enabled, nil otherwise — the nil check is what keeps a disabled
	// fleet's status and /metrics output byte-identical to a watch-less
	// build. The gauges live on the campaign's own registry, so they
	// export under its campaign="<name>" label.
	watch   *watch.Engine
	gHealth *obs.Gauge   // watch_health_score
	gAlerts *obs.Gauge   // watch_alerts_active
	cAlerts *obs.Counter // watch_alerts_total

	// sampleIdx counts synthesized watch samples per rank — the sample
	// ordinal alert IDs embed. Lazily initialized under sampleMu.
	sampleMu  sync.Mutex
	sampleIdx map[int]int
}

// ingest is one queued batch plus its response rendezvous. resp is
// buffered so the drainer never blocks on a handler that gave up.
type ingest struct {
	req   dist.BatchRequest
	bytes int64
	resp  chan batchAnswer
}

// batchAnswer is the drainer's answer to one batch: a response, or the
// rejection of a batch that disagrees with the campaign's shape.
type batchAnswer struct {
	resp dist.BatchResponse
	herr *dist.HTTPError
}

// batchSizeBounds buckets delta-batch request sizes in bytes.
var batchSizeBounds = []int64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// deltaCountBounds buckets publishes coalesced per batch.
var deltaCountBounds = []int64{1, 2, 4, 8, 16, 32}

// Server is the fleet host.
type Server struct {
	cfg   Config
	quota Quota
	start time.Time

	mu    sync.Mutex
	camps map[string]*campaign

	quit     chan struct{} // closed on Shutdown, after the HTTP drain
	quitOnce sync.Once
	wg       sync.WaitGroup

	// Watch plane (watch is nil unless Config.Watch).
	watch     *watch.Engine
	watchQuit chan struct{}
	watchOnce sync.Once
	sweepWG   sync.WaitGroup

	// fleetReg holds fleet-level (unlabeled) instruments: the
	// admission-rejection counters and the hosted-campaign gauge.
	// Always on — admission control predates the watch plane.
	fleetReg      *obs.Registry
	cRejCampaigns *obs.Counter // fleet_admission_rejected_campaigns_total
	cRejRanks     *obs.Counter // fleet_admission_rejected_ranks_total
	cRejBatches   *obs.Counter // fleet_admission_rejected_batches_total
	cRejBytes     *obs.Counter // fleet_admission_rejected_bytes_total
	gHosted       *obs.Gauge   // fleet_campaigns_hosted

	ln  net.Listener
	srv *http.Server
}

// NewServer binds addr and starts serving. With Resume set and a
// journal directory, every <name>.jsonl journal found there is
// re-admitted before the listener opens, so workers reconnecting
// after a fleet restart find their campaigns already live.
func NewServer(addr string, cfg Config) (*Server, error) {
	s := &Server{
		cfg:       cfg,
		quota:     cfg.Quota.withDefaults(),
		camps:     map[string]*campaign{},
		quit:      make(chan struct{}),
		watchQuit: make(chan struct{}),
		start:     time.Now(),
	}
	s.fleetReg = obs.NewRegistry()
	s.cRejCampaigns = s.fleetReg.Counter("fleet_admission_rejected_campaigns_total")
	s.cRejRanks = s.fleetReg.Counter("fleet_admission_rejected_ranks_total")
	s.cRejBatches = s.fleetReg.Counter("fleet_admission_rejected_batches_total")
	s.cRejBytes = s.fleetReg.Counter("fleet_admission_rejected_bytes_total")
	s.gHosted = s.fleetReg.Gauge("fleet_campaigns_hosted")
	if cfg.Watch {
		// The engine must exist before journal resume: re-admitted
		// campaigns seed it with their replayed alerts.
		s.watch = watch.NewEngine(cfg.WatchRules)
	}
	if cfg.TraceDir != "" {
		if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: trace dir: %w", err)
		}
	}
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: journal dir: %w", err)
		}
		if cfg.Resume {
			if err := s.resumeJournals(); err != nil {
				return nil, err
			}
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	mux := http.NewServeMux()
	s.routeWorkerRPCs(mux)
	mux.HandleFunc("/v1/campaigns", s.handleCampaigns)
	mux.HandleFunc("/v1/campaigns/", s.handleCampaign)
	mux.HandleFunc("/v1/fleet", s.handleFleet)
	mux.HandleFunc("/v1/watch/snapshot", s.handleWatchSnapshot)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if cfg.Watch {
		s.sweepWG.Add(1)
		go s.sweep()
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// resumeJournals re-admits every campaign whose journal survives in
// the journal directory. Files without a campaign record (e.g. a
// journal torn before its first fsync) are skipped, not fatal.
func (s *Server) resumeJournals() error {
	ents, err := os.ReadDir(s.cfg.JournalDir)
	if err != nil {
		return fmt.Errorf("fleet: resume: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".jsonl") {
			names = append(names, strings.TrimSuffix(e.Name(), ".jsonl"))
		}
	}
	sort.Strings(names)
	for _, name := range names {
		spec, jname, err := dist.LoadJournalSpec(filepath.Join(s.cfg.JournalDir, name+".jsonl"))
		if err != nil || spec == nil {
			continue
		}
		if jname == "" {
			jname = name
		}
		if jname != name || !nameRE.MatchString(name) {
			continue // journal does not belong at this path; leave it alone
		}
		if _, herr := s.admit(CreateRequest{Name: name, Spec: *spec}, true); herr != nil {
			return fmt.Errorf("fleet: resume %s: %s", name, herr.Msg)
		}
	}
	return nil
}

// admit creates a named campaign from a control-surface request: it
// validates the name, opens the campaign's trace file and journal
// path under the fleet directories, and installs the campaign through
// the same path Host uses. The quota errors are 4xx so a misbehaving
// tenant cannot distinguish "rejected" from "broken" — both are its
// own problem, not ours.
func (s *Server) admit(req CreateRequest, resume bool) (*campaign, *dist.HTTPError) {
	if !nameRE.MatchString(req.Name) {
		s.cRejCampaigns.Inc()
		return nil, &dist.HTTPError{Code: 400, Msg: fmt.Sprintf("invalid campaign name %q (want %s)", req.Name, nameRE)}
	}
	// Check for room before creating the trace file: a duplicate name
	// must not truncate the live campaign's trace.
	if herr := s.vacancy(req.Name, req.Spec.Workers); herr != nil {
		return nil, herr
	}
	oo := obs.Options{}
	if s.cfg.TraceDir != "" {
		f, err := os.Create(filepath.Join(s.cfg.TraceDir, req.Name+".trace.jsonl"))
		if err != nil {
			return nil, &dist.HTTPError{Code: 500, Msg: fmt.Sprintf("trace file: %v", err)}
		}
		oo.Tracer = obs.NewJSONLTracer(f)
	}
	o := obs.New(oo)
	cc := dist.CoordConfig{
		Spec:         req.Spec,
		Name:         req.Name,
		Obs:          o,
		StopAtPoints: req.StopAtPoints,
	}
	if s.cfg.JournalDir != "" {
		cc.JournalPath = filepath.Join(s.cfg.JournalDir, req.Name+".jsonl")
		cc.Resume = resume
	}
	c, herr := s.host(cc, true)
	if herr != nil {
		_ = o.Close()
		return nil, herr
	}
	return c, nil
}

// Host installs a campaign configured by the caller, who supplies its
// observer, journal path and resume flag and keeps ownership of the
// observer (the fleet never closes it). With an empty cc.Name the
// campaign is the fleet's implicit one: workers reach it without a
// campaign name while it is the only campaign hosted. Zero LeaseTTL
// and CompactBytes take the fleet Config's values.
func (s *Server) Host(cc dist.CoordConfig) (*dist.CampaignState, error) {
	c, herr := s.host(cc, false)
	if herr != nil {
		return nil, fmt.Errorf("fleet: host campaign %q: %s", cc.Name, herr.Msg)
	}
	return c.cs, nil
}

// vacancy checks the quota for a campaign of workers ranks under name
// against the current campaign set.
func (s *Server) vacancy(name string, workers int) *dist.HTTPError {
	if workers > s.quota.MaxWorkers {
		s.cRejRanks.Inc()
		return &dist.HTTPError{Code: 400, Msg: fmt.Sprintf(
			"campaign %q wants %d ranks; quota allows %d", name, workers, s.quota.MaxWorkers)}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vacancyLocked(name)
}

// vacancyLocked is vacancy's name and capacity half, under s.mu.
func (s *Server) vacancyLocked(name string) *dist.HTTPError {
	if s.camps[name] != nil {
		return &dist.HTTPError{Code: 409, Msg: fmt.Sprintf("campaign %q already exists", name)}
	}
	if len(s.camps) >= s.quota.MaxCampaigns {
		s.cRejCampaigns.Inc()
		return &dist.HTTPError{Code: 429, Msg: fmt.Sprintf(
			"fleet at capacity (%d campaigns); cancel one or retry later", s.quota.MaxCampaigns)}
	}
	return nil
}

// host is the one admission path behind admit and Host: quota check,
// campaign state (elaboration, journal replay), fleet instruments on
// the observer's registry, install, and the campaign's drainer.
// ownsObs hands cc.Obs to the fleet, which then closes it on Shutdown.
func (s *Server) host(cc dist.CoordConfig, ownsObs bool) (*campaign, *dist.HTTPError) {
	if herr := s.vacancy(cc.Name, cc.Spec.Workers); herr != nil {
		return nil, herr
	}
	if cc.LeaseTTL == 0 {
		cc.LeaseTTL = s.cfg.LeaseTTL
	}
	if cc.CompactBytes == 0 {
		cc.CompactBytes = s.cfg.CompactBytes
	}
	// The watch hooks capture c by reference: it is assigned below,
	// before the campaign becomes reachable (the mutex-guarded install
	// publishes the write to every handler and the drain goroutine), so
	// no hook ever observes it nil.
	var c *campaign
	if s.watch != nil {
		cc.OnPublish = func(rank int, seq uint64, vectors uint64, points int) {
			s.watchPublish(c, rank, seq, vectors, points)
		}
		cc.OnSolve = func(rank, graph, to int, outcome string, ns int64) {
			s.watchSolve(c, rank, graph, to, outcome, ns)
		}
	}
	cs, err := dist.NewCampaignState(cc)
	if err != nil {
		return nil, &dist.HTTPError{Code: 400, Msg: err.Error()}
	}

	reg := cc.Obs.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c = &campaign{
		name:     cc.Name,
		cs:       cs,
		reg:      reg,
		queue:    make(chan ingest, s.quota.QueueDepth),
		gDepth:   reg.Gauge("fleet_queue_depth"),
		gBytes:   reg.Gauge("fleet_queue_bytes"),
		cBatches: reg.Counter("fleet_batches_total"),
		c429:     reg.Counter("fleet_batch_rejected_total"),
		cDropped: reg.Counter("fleet_batch_dropped_total"),
		hBytes:   reg.Histogram("fleet_batch_bytes", batchSizeBounds),
		hDeltas:  reg.Histogram("fleet_batch_publishes", deltaCountBounds),
	}
	if s.watch != nil {
		// Watch instruments register only when the plane is on, so a
		// disabled fleet's /metrics output is unchanged.
		c.watch = s.watch
		c.gHealth = reg.Gauge("watch_health_score")
		c.gAlerts = reg.Gauge("watch_alerts_active")
		c.cAlerts = reg.Counter("watch_alerts_total")
	}

	if ownsObs {
		c.obs = cc.Obs
	}

	s.mu.Lock()
	if herr := s.vacancyLocked(cc.Name); herr != nil {
		s.mu.Unlock()
		cs.CloseJournal()
		return nil, herr
	}
	s.camps[cc.Name] = c
	s.gHosted.Set(int64(len(s.camps)))
	s.mu.Unlock()

	if s.watch != nil {
		s.seedWatchAlerts(c)
	}
	s.wg.Add(1)
	go s.drain(c)
	return c, nil
}

// drain is a campaign's single ingest consumer: batches apply in
// arrival order, the solver budget is enforced at the same point the
// spend is recorded, and the queue gauges track the drain. One
// goroutine per campaign means one campaign's backlog never delays
// another's.
func (s *Server) drain(c *campaign) {
	defer s.wg.Done()
	for {
		select {
		case in := <-c.queue:
			if s.cfg.DrainDelay > 0 {
				time.Sleep(s.cfg.DrainDelay)
			}
			var a batchAnswer
			if c.cancelled.Load() {
				// A cancelled campaign answers batches with OK=false —
				// workers abandon the rank instead of retrying forever.
				c.cDropped.Inc()
			} else {
				a.resp, a.herr = c.cs.ApplyBatch(in.req)
				c.cBatches.Inc()
				c.hBytes.Observe(in.bytes)
				c.hDeltas.Observe(int64(len(in.req.Publishes)))
				if b := s.quota.SolverBudgetNS; b > 0 && c.cs.SolverNS() > b && !c.budgetStop.Swap(true) {
					c.cs.ForceStop()
					c.reg.Counter("fleet_budget_stops_total").Inc()
				}
			}
			c.queuedBytes.Add(-in.bytes)
			c.gDepth.Set(int64(len(c.queue)))
			c.gBytes.Set(c.queuedBytes.Load())
			in.resp <- a
		case <-s.quit:
			return
		}
	}
}

// lookup resolves a campaign by name. An empty name resolves when the
// fleet hosts exactly one campaign, so a worker without -campaign
// reaches the implicit campaign of -serve (or any one-tenant fleet).
// Against a fleet that hosts nothing yet it answers 503, which workers
// retry: -serve binds its listener before its campaign has elaborated.
func (s *Server) lookup(name string) (*campaign, *dist.HTTPError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		switch len(s.camps) {
		case 0:
			return nil, &dist.HTTPError{Code: 503, Msg: "the fleet hosts no campaign yet"}
		case 1:
			for _, c := range s.camps {
				return c, nil
			}
		}
		return nil, &dist.HTTPError{Code: 404, Msg: fmt.Sprintf(
			"request names no campaign and the fleet hosts %d; set the campaign field", len(s.camps))}
	}
	c := s.camps[name]
	if c == nil {
		return nil, &dist.HTTPError{Code: 404, Msg: fmt.Sprintf("no campaign %q", name)}
	}
	return c, nil
}

// status snapshots one campaign.
func (c *campaign) status() CampaignStatus {
	st := CampaignStatus{
		Status:      c.cs.Status(),
		QueueDepth:  len(c.queue),
		QueueBytes:  c.queuedBytes.Load(),
		Batches:     c.cBatches.Value(),
		Rejected429: c.c429.Value(),
		Dropped:     c.cDropped.Value(),
		Cancelled:   c.cancelled.Load(),
		BudgetStop:  c.budgetStop.Load(),
	}
	if c.watch != nil {
		h := c.watch.Health(c.name)
		st.Watched = true
		st.HealthScore = h.Score
		st.AlertsActive = len(h.Alerts)
		st.AlertsTotal = h.AlertsTotal
	}
	return st
}

// campaignsSorted snapshots the campaign set in name order.
func (s *Server) campaignsSorted() []*campaign {
	s.mu.Lock()
	names := make([]string, 0, len(s.camps))
	for name := range s.camps {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*campaign, 0, len(names))
	for _, name := range names {
		out = append(out, s.camps[name])
	}
	s.mu.Unlock()
	return out
}

// Report finalizes and returns a completed campaign's merged report —
// the same par.Report an in-process -workers run returns. It fails
// while ranks are still running unless the campaign was cancelled (a
// cancelled campaign merges what completed, marked Interrupted).
func (s *Server) Report(name string) (*par.Report, error) {
	c, herr := s.lookup(name)
	if herr != nil {
		return nil, fmt.Errorf("%s", herr.Msg)
	}
	select {
	case <-c.cs.Done():
	default:
		if !c.cancelled.Load() {
			return nil, fmt.Errorf("fleet: campaign %q still running", name)
		}
	}
	return c.cs.Finalize(c.cancelled.Load())
}

// WaitCampaign blocks until the named campaign's ranks all report and
// returns its merged report. When ctx ends first (ctrl-C on -serve),
// the stop signal is tripped — workers stop at their next boundary
// and deliver partial reports — deliveries are drained for a bounded
// time, and the merge covers the ranks that reported, marked
// Interrupted. Unlike DELETE, this does not cancel the campaign:
// batches still apply, so no worker abandons its rank.
func (s *Server) WaitCampaign(ctx context.Context, name string) (*par.Report, error) {
	c, herr := s.lookup(name)
	if herr != nil {
		return nil, fmt.Errorf("%s", herr.Msg)
	}
	interrupted := false
	select {
	case <-c.cs.Done():
	case <-ctx.Done():
		interrupted = true
		c.cs.ForceStop()
		select {
		case <-c.cs.Done():
		case <-time.After(s.leaseTTL() + 5*time.Second):
		}
	}
	return c.cs.Finalize(interrupted)
}

func sinceStart(s *Server) time.Duration { return time.Since(s.start) }

func (s *Server) leaseTTL() time.Duration {
	if s.cfg.LeaseTTL > 0 {
		return s.cfg.LeaseTTL
	}
	return 5 * time.Second
}

// Shutdown stops the watch plane, drains the HTTP server, stops the
// drainers, finalizes every completed campaign (flushing its merged
// trace), and closes every journal. The watch sweep stops first (see
// stopWatch). Handlers parked on their campaign's drainer still finish
// (Shutdown waits for in-flight requests), so no queued batch is left
// unanswered.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopWatch()
	err := s.srv.Shutdown(ctx)
	s.quitOnce.Do(func() { close(s.quit) })
	s.wg.Wait()
	for _, c := range s.campaignsSorted() {
		select {
		case <-c.cs.Done():
			// Finalize is idempotent; this emits the merged trace if no
			// report fetch already did.
			_, _ = c.cs.Finalize(c.cancelled.Load())
		default:
		}
		if cerr := c.obs.Close(); err == nil {
			err = cerr
		}
		if cerr := c.cs.CloseJournal(); err == nil {
			err = cerr
		}
	}
	return err
}
