package dist

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cov"
)

// batchPublisher is the worker side of the v4 batched wire: it turns
// the engine's synchronous interval-boundary publishes into coalesced
// delta-encoded fire-and-forget batches. The engine's Sync hook only
// diffs its local coverage against what the coordinator has already
// acknowledged and returns — no HTTP on the hot path. A background
// flusher ships the accumulated delta (plus any queued solve records)
// every flushInterval, or sooner when flushEvery publishes have
// coalesced. Deltas that carry neither new coverage nor vector
// progress are never sent, and no point is sent twice once acked,
// which is what keeps the publish plane small next to shipping the
// cumulative snapshot at every interval boundary. Progress-only
// deltas (empty coverage, advanced vector count) DO ship, at the
// count cadence, so the coordinator's watch plane keeps receiving
// samples while coverage plateaus.
//
// Correctness does not depend on delivery: the frontier is a
// trajectory-neutral sink, the final report ships the full cumulative
// coverage, and deltas carry per-rank sequence numbers so a retried
// batch is applied idempotently. When the coordinator restarts and
// loses the acked baseline it answers Resync, and the publisher folds
// everything it believes back into the next delta, so a restarted
// coordinator's frontier heals without a full-snapshot protocol.
type batchPublisher struct {
	ctx      context.Context
	cl       *Client
	campaign string
	workerID string
	rank     int

	flushInterval time.Duration

	mu       sync.Mutex
	base     *cov.CFGCov // coverage the coordinator has acked
	pend     *cov.CFGCov // delta accumulated since the last flush
	pendVecs uint64
	diffed   int  // the engine's point count at the last diff
	dirty    bool // pend holds unshipped coverage points
	prog     bool // vectors advanced since the last shipped delta
	pubs     int
	stores   []CacheStore
	err      error
	seq      uint64

	stop atomic.Bool
	lost atomic.Bool

	kick     chan struct{}
	quit     chan struct{}
	quitOnce sync.Once
	done     chan struct{}
}

// flushEvery is how many coalesced publishes trigger a flush before
// flushInterval elapses.
const flushEvery = 8

// maxStoreQueue bounds the fire-and-forget solve-record queue; older
// entries are dropped first (a lost record only under-reads the
// coordinator's solver meter).
const maxStoreQueue = 256

func newBatchPublisher(ctx context.Context, cl *Client, campaign, workerID string, rank int, flushInterval time.Duration) *batchPublisher {
	if flushInterval <= 0 {
		flushInterval = 25 * time.Millisecond
	}
	p := &batchPublisher{
		ctx: ctx, cl: cl, campaign: campaign, workerID: workerID, rank: rank,
		flushInterval: flushInterval, kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go p.run()
	return p
}

// bareCovLike allocates an empty coverage value with cv's graph shape
// — the diff baselines.
func bareCovLike(cv *cov.CFGCov) *cov.CFGCov {
	c := &cov.CFGCov{
		NodesSeen: make([]map[int]bool, len(cv.NodesSeen)),
		EdgesSeen: make([]map[int]bool, len(cv.EdgesSeen)),
		Tuples:    map[string]bool{},
	}
	for gi := range c.NodesSeen {
		c.NodesSeen[gi] = map[int]bool{}
	}
	for gi := range c.EdgesSeen {
		c.EdgesSeen[gi] = map[int]bool{}
	}
	return c
}

// diffInto adds every point of cur that is in neither base nor pend
// into pend, reporting whether anything was added. Set membership is
// order-insensitive, so map iteration order is irrelevant here.
func diffInto(pend, cur, base *cov.CFGCov) bool {
	added := false
	for gi := range cur.NodesSeen {
		if gi >= len(pend.NodesSeen) {
			break
		}
		//fuzzvet:ordered — set union, insertion order irrelevant
		for id := range cur.NodesSeen[gi] {
			if !base.NodesSeen[gi][id] && !pend.NodesSeen[gi][id] {
				pend.NodesSeen[gi][id] = true
				added = true
			}
		}
		//fuzzvet:ordered — set union, insertion order irrelevant
		for id := range cur.EdgesSeen[gi] {
			if !base.EdgesSeen[gi][id] && !pend.EdgesSeen[gi][id] {
				pend.EdgesSeen[gi][id] = true
				added = true
			}
		}
	}
	//fuzzvet:ordered — set union, insertion order irrelevant
	for t := range cur.Tuples {
		if !base.Tuples[t] && !pend.Tuples[t] {
			pend.Tuples[t] = true
			added = true
		}
	}
	return added
}

// enqueuePublish records the engine's current cumulative coverage at
// an interval boundary. Called from the Sync hook — no I/O. Coverage
// sets only grow, so an unchanged point count means nothing new to
// diff: every point already diffed is in pend, in flight (which lands
// in base or back in pend), or in base.
func (p *batchPublisher) enqueuePublish(cv *cov.CFGCov, vectors uint64) {
	p.mu.Lock()
	if p.base == nil {
		p.base = bareCovLike(cv)
		p.pend = bareCovLike(cv)
	}
	if pts := cv.Points(); pts != p.diffed {
		p.diffed = pts
		if diffInto(p.pend, cv, p.base) {
			p.dirty = true
		}
	}
	if vectors > p.pendVecs {
		p.pendVecs = vectors
		p.prog = true
	}
	p.pubs++
	// Coverage plateaus must still surface on the coordinator: a
	// progress-only delta (empty coverage, advanced vector count) ships
	// at the same count cadence as a dirty one, so the watch plane's
	// stall detector sees flat samples instead of silence. Cost is one
	// small batch per flushEvery intervals while saturated.
	full := (p.dirty || p.prog) && p.pubs >= flushEvery
	if full {
		p.pubs = 0
	}
	p.mu.Unlock()
	if full {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
}

// enqueueStore queues a fire-and-forget solve record.
func (p *batchPublisher) enqueueStore(s CacheStore) {
	p.mu.Lock()
	p.stores = append(p.stores, s)
	if len(p.stores) > maxStoreQueue {
		over := len(p.stores) - maxStoreQueue
		p.stores = p.stores[over:]
	}
	p.mu.Unlock()
}

func (p *batchPublisher) run() {
	defer close(p.done)
	t := time.NewTicker(p.flushInterval)
	defer t.Stop()
	for {
		select {
		case <-p.quit:
			p.flush() // final best-effort drain
			return
		case <-p.ctx.Done():
			return
		case <-p.kick:
		case <-t.C:
		}
		p.flush()
	}
}

// flush ships one batch: the pending delta (if any) plus the queued
// stores. On transport failure the in-flight delta folds back into
// the pending one and the error is surfaced at the next Sync.
func (p *batchPublisher) flush() {
	p.mu.Lock()
	if (!p.dirty && !p.prog && len(p.stores) == 0) || p.err != nil {
		p.mu.Unlock()
		return
	}
	var pubs []PublishDelta
	var inflight *cov.CFGCov
	if p.dirty || p.prog {
		p.seq++
		pubs = []PublishDelta{{Seq: p.seq, Vectors: p.pendVecs, Delta: CovToWire(p.pend)}}
		inflight = p.pend
		p.pend = bareCovLike(inflight)
		p.dirty = false
		p.prog = false
		p.pubs = 0
	}
	stores := p.stores
	p.stores = nil
	p.mu.Unlock()

	resp, err := p.cl.Batch(p.ctx, BatchRequest{
		Campaign: p.campaign, WorkerID: p.workerID, Rank: p.rank,
		Publishes: pubs, Stores: stores,
	})
	if err != nil {
		p.mu.Lock()
		if inflight != nil {
			p.pend.Merge(inflight)
			p.dirty = true
			p.prog = true
		}
		if p.err == nil && p.ctx.Err() == nil {
			p.err = err
		}
		p.mu.Unlock()
		p.stop.Store(true)
		return
	}
	if !resp.OK {
		p.lost.Store(true)
		p.stop.Store(true)
		return
	}
	if resp.Stop {
		p.stop.Store(true)
	}
	if inflight != nil {
		p.mu.Lock()
		if resp.Resync {
			// The coordinator restarted and lost the acked baseline:
			// fold everything we believe into the next delta. Re-sending
			// already-applied points is harmless (idempotent union).
			p.pend.Merge(p.base)
			p.pend.Merge(inflight)
			p.dirty = true
			p.base = bareCovLike(p.base)
		} else {
			p.base.Merge(inflight)
		}
		p.mu.Unlock()
	}
}

// close stops the flusher after a final drain and waits for it.
// Idempotent (called both on the report path and deferred).
func (p *batchPublisher) close() {
	p.quitOnce.Do(func() { close(p.quit) })
	<-p.done
}

// Err returns the first terminal transport error, if any.
func (p *batchPublisher) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}
