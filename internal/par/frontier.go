package par

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cov"
	"repro/internal/obs"
)

// Frontier is the shared global coverage view of a campaign:
// per-cluster-graph mutex-protected node/edge sets plus striped
// interaction-tuple shards, with an atomic point counter that is only
// advanced on genuinely-new inserts — an edge covered both locally and
// globally counts exactly once, no matter how many workers publish it.
//
// The Frontier is a sink and a stop signal, never a steering input:
// worker trajectories read only their local coverage, so the campaign
// result is independent of publish interleaving. The deterministic
// merged report is computed separately (merge-by-rank over the worker
// monitors after join); the Frontier exists for live status, the
// campaign curve, and the opt-in stop condition.
//
// It is exported so that internal/dist can host the same frontier on a
// network coordinator: remote workers publish serialized coverage
// snapshots into it exactly the way in-process workers publish their
// live monitors, and because inserts are idempotent set unions a
// re-publish after a reconnect (or a replacement worker reproducing a
// dead worker's trajectory) never double-counts.
type Frontier struct {
	start time.Time

	// graphs grows to the highest cluster graph a publish names, so
	// the frontier needs no partition: it keeps what it is sent.
	graphMu sync.Mutex
	graphs  []*graphShard
	stripes [tupleStripes]stripeSet

	points atomic.Int64

	// target > 0 stops the campaign when the global point count first
	// reaches it (bench mode: time-to-target). It is opt-in and makes
	// the stop vector count nondeterministic — a fixed-budget campaign
	// leaves it unset and stays fully deterministic.
	target   int64
	stopped  atomic.Bool
	targetNS atomic.Int64

	o          *obs.Observer
	workerVecs []atomic.Uint64

	curveMu sync.Mutex
	curve   []obs.CurvePoint
}

type graphShard struct {
	mu    sync.Mutex
	nodes map[int]bool
	edges map[int]bool
}

const tupleStripes = 16

type stripeSet struct {
	mu  sync.Mutex
	set map[string]bool
}

// NewFrontier builds a frontier accepting publishes from workers ranks
// [0, workers). target > 0 arms the time-to-target stop. o (nil-safe)
// receives live curve samples.
func NewFrontier(workers int, target int, o *obs.Observer) *Frontier {
	f := &Frontier{
		target:     int64(target),
		o:          o,
		workerVecs: make([]atomic.Uint64, workers),
		start:      time.Now(),
	}
	for i := range f.stripes {
		f.stripes[i].set = map[string]bool{}
	}
	return f
}

// graph returns cluster graph gi's shard, growing the shard list on
// first sight of gi.
func (f *Frontier) graph(gi int) *graphShard {
	f.graphMu.Lock()
	defer f.graphMu.Unlock()
	for len(f.graphs) <= gi {
		f.graphs = append(f.graphs, &graphShard{nodes: map[int]bool{}, edges: map[int]bool{}})
	}
	return f.graphs[gi]
}

// tupleStripe picks a stripe by FNV-1a hash so concurrent publishers
// rarely contend on the same lock.
func tupleStripe(k string) int {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * 0x100000001b3
	}
	return int(h % tupleStripes)
}

// Publish merges one worker's local coverage into the global view and
// refreshes the live campaign curve. Dynamic (off-graph) observations
// are excluded, matching CFGCov.Points. Publishing the same coverage
// twice (a worker republishing at the next boundary, a replacement
// worker re-walking a dead worker's trajectory) is idempotent.
func (f *Frontier) Publish(rank int, cv *cov.CFGCov, vectors uint64) {
	var added int64
	for gi := range cv.NodesSeen {
		gs := f.graph(gi)
		gs.mu.Lock()
		for id := range cv.NodesSeen[gi] {
			if !gs.nodes[id] {
				gs.nodes[id] = true
				added++
			}
		}
		for id := range cv.EdgesSeen[gi] {
			if !gs.edges[id] {
				gs.edges[id] = true
				added++
			}
		}
		gs.mu.Unlock()
	}
	for t := range cv.Tuples {
		st := &f.stripes[tupleStripe(t)]
		st.mu.Lock()
		if !st.set[t] {
			st.set[t] = true
			added++
		}
		st.mu.Unlock()
	}
	if rank >= 0 && rank < len(f.workerVecs) {
		f.workerVecs[rank].Store(vectors)
	}
	pts := f.points.Add(added)

	total := uint64(0)
	for i := range f.workerVecs {
		total += f.workerVecs[i].Load()
	}
	f.o.AddCurvePoint(total, int(pts))
	f.curveMu.Lock()
	f.curve = append(f.curve, obs.CurvePoint{Vectors: total, Points: int(pts)})
	f.curveMu.Unlock()

	if f.target > 0 && pts >= f.target {
		if f.stopped.CompareAndSwap(false, true) {
			f.targetNS.Store(int64(time.Since(f.start)))
		}
	}
}

// Points returns the current global point count.
func (f *Frontier) Points() int { return int(f.points.Load()) }

// ShouldStop reports whether a stop condition has fired (workers poll
// it at interval boundaries through the engine Sync hook).
func (f *Frontier) ShouldStop() bool { return f.stopped.Load() }

// ForceStop trips the stop signal (worker error paths, campaign abort).
func (f *Frontier) ForceStop() { f.stopped.Store(true) }

// TimeToTargetNS is the wall time at which the global point count first
// reached the configured target (0 if never reached or no target).
func (f *Frontier) TimeToTargetNS() int64 { return f.targetNS.Load() }

// Curve returns a copy of the live campaign coverage curve. Samples
// are wall-clock ordered (publish order), so the curve is a live-view
// artifact, not part of the deterministic merged report.
func (f *Frontier) Curve() []obs.CurvePoint {
	f.curveMu.Lock()
	defer f.curveMu.Unlock()
	out := make([]obs.CurvePoint, len(f.curve))
	copy(out, f.curve)
	return out
}
