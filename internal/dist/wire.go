// Package dist is the fault-tolerant distributed campaign service: a
// stdlib-only (net/http + encoding/json) coordinator/worker protocol
// that runs one SymbFuzz campaign across N processes, possibly on N
// machines.
//
// The coordinator owns only the campaign state that ranks report into:
// the global coverage frontier (par.Frontier), a lease table mapping
// core.ShardSpec shard ranks to workers, the journal, and the
// rank-ordered merge. It builds no engine. Workers run the unmodified
// Algorithm-1 engine (core.Engine) locally, each with a worker-local
// solved-plan cache (par.SolveCache), and speak a small versioned wire
// API:
//
//	POST /v1/join       handshake: protocol version check, campaign spec
//	POST /v1/lease      claim a shard rank (lowest available; hint honored)
//	POST /v1/batch      coverage deltas + solve records, fire-and-forget
//	POST /v1/heartbeat  renew the rank lease; poll stop conditions
//	POST /v1/report     deliver the rank's final report + coverage + trace lane
//
// The HTTP host is internal/fleet: every campaign, including the
// implicit one `symbfuzz -serve` runs, is a CampaignState routed by
// the fleet server.
//
// Determinism transfers from par unchanged because every cross-worker
// coupling goes through trajectory-neutral interfaces: the frontier is
// a sink, the plan cache is a canonical-seed memoization (a hit is
// byte-identical to the live solve, so whether a rank shares its cache
// with anyone changes wall time only), and the merge is by rank.
// Worker seeds are a pure function of (campaign seed, rank), so a
// replacement worker leasing a dead worker's rank reproduces the lost
// trajectory exactly and the merged report equals the fault-free run.
package dist

import (
	"sort"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/obs"
	"repro/internal/smt"
)

// ProtoVersion is the wire-protocol version. /v1/join rejects any
// worker whose version differs — both sides must be built from the
// same protocol revision, since reports and plans cross the wire as
// structured JSON. v2 added the trace-context field on
// publish/cache/report (cross-process span correlation) and the
// restart count in solver statistics. v3 added the Profile flag on
// the campaign spec and the rank cost ledger on /v1/report, so the
// coordinator can merge per-rank profiling ledgers rank-ordered.
// v4 added fleet multiplexing: the campaign name on every request (the
// coordinator routes on it; empty names the sole hosted campaign), the
// batched delta-encoded /v1/batch message (coalesced coverage deltas +
// fire-and-forget cache stores, with sequence numbers for idempotent
// redelivery and a resync signal after a coordinator restart), and the
// Batch capability flag on the join response. v4 also retired the v3
// synchronous /v1/publish endpoint and the /v1/cache "store" op, so
// /v1/batch is the only publish path. v5 removed the rank cost ledger
// from /v1/report: a profiled rank's simulator profile rides its lane's
// campaign_end event instead, and the solver ledger is derived from
// the lane's spans (obs.BuildCampaignReport). v6 removed the /v1/cache
// lookup (ranks keep their plan caches local), and a batched store now
// carries only the key and solve statistics the coordinator meters.
// Batches and reports no longer carry the rank's unread trace context;
// the field was optional and unknown fields decode, so that change
// kept v6.
const ProtoVersion = 6

// PropSpec is a security property shipped over the wire as source
// strings (the compiled form is not serializable); the worker parses
// it with props.ParseProperty.
type PropSpec struct {
	Name       string `json:"name"`
	Expr       string `json:"expr"`
	DisableIff string `json:"disable_iff,omitempty"`
}

// CampaignSpec is everything a worker needs to reconstruct its
// per-rank engine configuration. Benchmarks resolve either by
// registry name (Bench, both binaries built from this repo) or by
// shipped HDL source (Source/Top, the -src path).
type CampaignSpec struct {
	Bench  string `json:"bench,omitempty"`
	Fixed  bool   `json:"fixed,omitempty"`
	Source string `json:"source,omitempty"`
	Top    string `json:"top,omitempty"`

	Props []PropSpec `json:"props,omitempty"`

	Interval              int    `json:"interval"`
	Threshold             int    `json:"threshold"`
	MaxVectors            uint64 `json:"max_vectors"`
	Seed                  int64  `json:"seed"`
	Workers               int    `json:"workers"`
	UseSnapshots          bool   `json:"use_snapshots"`
	ContinueAfterCoverage bool   `json:"continue_after_coverage"`
	DisableSlicing        bool   `json:"disable_slicing,omitempty"`
	// Profile turns on each rank's simulator profile
	// (core.Config.SimProfile): per-process eval counts on the rank
	// lane's campaign_end, for the trace-derived cost ledger.
	Profile bool `json:"profile,omitempty"`
	// SimBackend selects the workers' DUV implementation ("interp" or
	// "compiled"); empty means interp. Reports are backend-independent,
	// so mixed fleets stay mergeable.
	SimBackend string `json:"sim_backend,omitempty"`
}

// JoinRequest opens a worker session. RankHint (-1 for none) asks the
// coordinator to prefer a specific shard rank at the next lease.
// Campaign names the target campaign (empty targets the coordinator's
// sole campaign, e.g. the implicit one of `symbfuzz -serve`).
type JoinRequest struct {
	Proto    int    `json:"proto"`
	WorkerID string `json:"worker_id"`
	RankHint int    `json:"rank_hint"`
	Campaign string `json:"campaign,omitempty"`
}

// JoinResponse carries the campaign identity and spec. Batch is
// always true since /v1/batch became the only publish path; the field
// stays so the v4 encoding is unchanged.
type JoinResponse struct {
	Proto      int          `json:"proto"`
	CampaignID string       `json:"campaign_id"`
	Spec       CampaignSpec `json:"spec"`
	Batch      bool         `json:"batch,omitempty"`
}

// LeaseRequest claims a shard rank. Rank -1 asks for any available
// rank; a specific rank is honored when that rank is claimable.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	Rank     int    `json:"rank"`
	Campaign string `json:"campaign,omitempty"`
}

// LeaseResponse grants a rank (with its derived seed and the lease
// TTL), tells the worker the campaign is done, or asks it to retry
// after RetryMS (every claimable rank is currently leased and live).
type LeaseResponse struct {
	Rank    int   `json:"rank"`
	Seed    int64 `json:"seed,omitempty"`
	TTLMS   int64 `json:"ttl_ms,omitempty"`
	Done    bool  `json:"done,omitempty"`
	RetryMS int64 `json:"retry_ms,omitempty"`
}

// HeartbeatRequest renews a rank lease.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	Rank     int    `json:"rank"`
	Vectors  uint64 `json:"vectors"`
	Campaign string `json:"campaign,omitempty"`
}

// HeartbeatResponse: OK=false means the lease was lost (expired and
// reassigned) — the worker must abandon the rank. Stop=true means a
// campaign-level stop condition fired — the worker should stop at the
// next boundary and deliver its (partial) report.
type HeartbeatResponse struct {
	OK   bool `json:"ok"`
	Stop bool `json:"stop,omitempty"`
}

// ReportRequest delivers a rank's final report, its final full
// coverage snapshot, and the rank's complete telemetry lane (the
// worker-stamped trace events of the whole run, in emit order).
type ReportRequest struct {
	WorkerID string      `json:"worker_id"`
	Rank     int         `json:"rank"`
	Report   core.Report `json:"report"`
	Coverage CovWire     `json:"coverage"`
	Events   []obs.Event `json:"events,omitempty"`
	Campaign string      `json:"campaign,omitempty"`
}

// ReportResponse acks the report; Done=true means every rank is
// accounted for and the worker may disconnect.
type ReportResponse struct {
	OK   bool `json:"ok"`
	Done bool `json:"done,omitempty"`
}

// PublishDelta is one delta-encoded coverage publish inside a batch:
// only the coverage points the worker has not yet had acknowledged,
// plus the rank's cumulative vector count at emit time. Seq numbers
// deltas per rank so redelivery after a retried batch is idempotent
// (the coordinator skips any delta at or below its applied sequence;
// frontier inserts are set unions, so even a double-apply is
// harmless).
type PublishDelta struct {
	Seq     uint64  `json:"seq"`
	Vectors uint64  `json:"vectors"`
	Delta   CovWire `json:"delta"`
}

// CacheStore is one fire-and-forget record of a rank's live solve
// inside a batch: the plan-cache key it was stored under and the solve
// statistics. The coordinator reads it for the solver-seconds meter
// and the watch plane; the plan itself stays in the rank's cache.
type CacheStore struct {
	Key   PlanKeyWire `json:"key"`
	Stats StatsWire   `json:"stats"`
}

// BatchRequest is the v4 batched fire-and-forget channel: coalesced
// coverage deltas and solve records from one rank, flushed by a
// background publisher instead of blocking the engine at interval
// boundaries. A batch renews the rank's lease like a heartbeat does.
type BatchRequest struct {
	Campaign  string         `json:"campaign,omitempty"`
	WorkerID  string         `json:"worker_id"`
	Rank      int            `json:"rank"`
	Publishes []PublishDelta `json:"publishes,omitempty"`
	Stores    []CacheStore   `json:"stores,omitempty"`
}

// BatchResponse acks a batch. OK=false means the lease was lost.
// AckSeq is the highest delta sequence applied for the rank. Resync
// asks the worker to fold its full cumulative coverage into the next
// delta: the coordinator restarted and lost earlier deltas, so the
// baseline the worker has been diffing against is gone. Stop mirrors
// the heartbeat stop signal.
type BatchResponse struct {
	OK     bool   `json:"ok"`
	Stop   bool   `json:"stop,omitempty"`
	AckSeq uint64 `json:"ack_seq,omitempty"`
	Resync bool   `json:"resync,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx protocol answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ---- coverage serialization ----

// CovWire is a CFG coverage snapshot in wire form: per-cluster-graph
// sorted node and edge ID lists plus the sorted interaction-tuple
// set. Sorting makes the encoding canonical — equal coverage encodes
// to equal JSON, which the golden-fixture tests rely on.
type CovWire struct {
	Nodes  [][]int  `json:"nodes"`
	Edges  [][]int  `json:"edges"`
	Tuples []string `json:"tuples,omitempty"`
}

// CovToWire serializes a coverage monitor's observed sets.
func CovToWire(c *cov.CFGCov) CovWire {
	w := CovWire{
		Nodes: make([][]int, len(c.NodesSeen)),
		Edges: make([][]int, len(c.EdgesSeen)),
	}
	for gi := range c.NodesSeen {
		w.Nodes[gi] = sortedKeys(c.NodesSeen[gi])
		w.Edges[gi] = sortedKeys(c.EdgesSeen[gi])
	}
	w.Tuples = make([]string, 0, len(c.Tuples))
	for t := range c.Tuples {
		w.Tuples = append(w.Tuples, t)
	}
	sort.Strings(w.Tuples)
	return w
}

// CovFromWire reconstructs a bare coverage value carrying only the
// observed sets — exactly what Frontier.Publish and CFGCov.Merge
// read. It is not attached to a simulator and must not be Sampled.
func CovFromWire(w CovWire) *cov.CFGCov {
	c := &cov.CFGCov{
		NodesSeen: make([]map[int]bool, len(w.Nodes)),
		EdgesSeen: make([]map[int]bool, len(w.Edges)),
		Tuples:    make(map[string]bool, len(w.Tuples)),
	}
	for gi := range w.Nodes {
		c.NodesSeen[gi] = make(map[int]bool, len(w.Nodes[gi]))
		for _, id := range w.Nodes[gi] {
			c.NodesSeen[gi][id] = true
		}
	}
	for gi := range w.Edges {
		c.EdgesSeen[gi] = make(map[int]bool, len(w.Edges[gi]))
		for _, id := range w.Edges[gi] {
			c.EdgesSeen[gi][id] = true
		}
	}
	for _, t := range w.Tuples {
		c.Tuples[t] = true
	}
	return c
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// ---- solve-record serialization ----

// PlanKeyWire mirrors core.PlanKey.
type PlanKeyWire struct {
	Graph int    `json:"graph"`
	To    int    `json:"to"`
	Ctx   uint64 `json:"ctx"`
}

// KeyToWire converts a cache key to its wire form.
func KeyToWire(k core.PlanKey) PlanKeyWire {
	return PlanKeyWire{Graph: k.Graph, To: k.To, Ctx: k.Ctx}
}

// StatsWire mirrors smt.SolveStats with a readable outcome.
type StatsWire struct {
	Outcome      string `json:"outcome"`
	Conflicts    int64  `json:"conflicts,omitempty"`
	Decisions    int64  `json:"decisions,omitempty"`
	Propagations int64  `json:"propagations,omitempty"`
	Restarts     int64  `json:"restarts,omitempty"`
	Clauses      int    `json:"clauses,omitempty"`
	Vars         int    `json:"vars,omitempty"`
	BlastNS      int64  `json:"blast_ns,omitempty"`
	SolveNS      int64  `json:"cdcl_ns,omitempty"`
}

// statsToWire converts solve statistics to their wire form.
func statsToWire(st smt.SolveStats) StatsWire {
	return StatsWire{
		Outcome:      st.Outcome.String(),
		Conflicts:    st.Conflicts,
		Decisions:    st.Decisions,
		Propagations: st.Propagations,
		Restarts:     st.Restarts,
		Clauses:      st.Clauses,
		Vars:         st.Vars,
		BlastNS:      st.BlastNS,
		SolveNS:      st.SolveNS,
	}
}
