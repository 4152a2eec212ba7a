package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/designs"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/props"
)

// WorkerConfig parameterizes a remote campaign worker.
type WorkerConfig struct {
	// Addr is the coordinator's host:port.
	Addr string
	// WorkerID must be unique per worker process (the CLI derives one
	// from hostname+pid).
	WorkerID string
	// Campaign names the target campaign; empty targets the
	// coordinator's sole campaign (the implicit one of -serve).
	Campaign string
	// RankHint, when >= 0, asks for a specific shard rank first.
	RankHint int
	// MaxRanks bounds how many ranks this process will run (0 = keep
	// leasing until the campaign is done; a single worker process can
	// serially drain every rank of a campaign).
	MaxRanks int

	// FlushInterval tunes the batch publisher's flush period (default
	// 25ms; a test knob).
	FlushInterval time.Duration

	// test hooks (zero in production): DieAfterPublishes > 0 makes the
	// worker return ErrWorkerDied after that many successful publishes
	// — simulating a crash mid-shard without tearing down the test
	// process. Client overrides the wire client (tests tighten its
	// timeouts).
	DieAfterPublishes int
	Client            *Client
}

// ErrWorkerDied is the induced-crash sentinel of the fault tests.
var ErrWorkerDied = errors.New("dist: worker died (induced)")

// errLeaseLost aborts a rank whose lease was reassigned.
var errLeaseLost = errors.New("dist: lease lost")

// errCampaignDone ends the lease loop when the worker's own report
// completed the campaign — the coordinator may already be gone by the
// time another lease request would reach it.
var errCampaignDone = errors.New("dist: campaign done")

// bufTracer buffers a rank's telemetry lane for delivery with its
// report. Shipping the lane whole (instead of streaming events live)
// keeps the coordinator's trace valid under replacement: a dead
// worker's partial lane is simply never delivered, so each worker
// lane in the merged trace is one complete monotonic stream.
type bufTracer struct {
	mu     sync.Mutex
	events []obs.Event
}

func (b *bufTracer) Emit(ev *obs.Event) {
	b.mu.Lock()
	b.events = append(b.events, *ev)
	b.mu.Unlock()
}

func (b *bufTracer) Close() error { return nil }

func (b *bufTracer) take() []obs.Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.events
	b.events = nil
	return out
}

// shippingCache is a rank's plan cache: the worker-local cache, with
// each live solve's statistics shipped on the batch publisher for the
// coordinator's solver meter and watch plane. Lookups never leave the
// process — a remote lookup costs about what the solve it saves does.
type shippingCache struct {
	*par.SolveCache
	bp *batchPublisher
}

func (c shippingCache) Store(k core.PlanKey, v core.CachedPlan) {
	c.SolveCache.Store(k, v)
	c.bp.enqueueStore(CacheStore{Key: KeyToWire(k), Stats: statsToWire(v.Stats)})
}

// RunWorker joins the coordinator at c.Addr and runs shard ranks
// until the campaign is done (or MaxRanks is reached, or ctx is
// cancelled). Each rank runs the unmodified Algorithm-1 engine with
// the seed the coordinator derived for that rank; the engine's
// interval-boundary Sync hook feeds the batch publisher and lease
// heartbeats ride a background goroutine while the engine runs.
func RunWorker(ctx context.Context, c WorkerConfig) error {
	if c.WorkerID == "" {
		return fmt.Errorf("dist: WorkerID is required")
	}
	cl := c.Client
	if cl == nil {
		cl = NewClient(c.Addr, seedFromID(c.WorkerID))
	}

	join, err := cl.Join(ctx, JoinRequest{Proto: ProtoVersion, WorkerID: c.WorkerID, RankHint: c.RankHint, Campaign: c.Campaign})
	if err != nil {
		return err
	}
	spec := join.Spec
	bench, properties, err := ResolveSpec(spec)
	if err != nil {
		return err
	}

	w := &worker{
		id:            c.WorkerID,
		campaign:      c.Campaign,
		cl:            cl,
		spec:          spec,
		bench:         bench,
		properties:    properties,
		flushInterval: c.FlushInterval,
		publishesLeft: c.DieAfterPublishes,
	}
	if spec.Workers > 1 {
		w.l1 = par.NewSolveCache()
	}

	hint := c.RankHint
	for ranksRun := 0; ; {
		if err := ctx.Err(); err != nil {
			return err
		}
		lr, err := cl.Lease(ctx, LeaseRequest{WorkerID: c.WorkerID, Rank: hint, Campaign: c.Campaign})
		if err != nil {
			return err
		}
		hint = -1
		if lr.Done {
			return nil
		}
		if lr.Rank < 0 {
			retry := time.Duration(lr.RetryMS) * time.Millisecond
			if retry <= 0 {
				retry = time.Second
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(retry):
			}
			continue
		}

		err = w.runRank(ctx, lr)
		switch {
		case errors.Is(err, errLeaseLost):
			continue // abandon the rank; its replacement reproduces it
		case errors.Is(err, errCampaignDone):
			return nil
		case err != nil:
			return err
		}
		ranksRun++
		if c.MaxRanks > 0 && ranksRun >= c.MaxRanks {
			return nil
		}
	}
}

// worker is the per-process state shared across the ranks it runs.
type worker struct {
	id         string
	campaign   string
	cl         *Client
	spec       CampaignSpec
	bench      *designs.Benchmark
	properties []*props.Property
	// l1 is the process-local plan cache shared across the ranks this
	// worker runs (per-rank shippingCache adapters wrap it).
	l1 *par.SolveCache

	flushInterval time.Duration

	// publishesLeft counts down to the induced crash (test hook);
	// negative or zero at start means never.
	publishesLeft int
}

// runRank executes one leased shard rank end to end: elaborate a
// fresh design, run the engine with the rank's derived seed, publish
// coverage at every interval boundary, heartbeat in the background,
// and deliver the final report + coverage + telemetry lane.
func (w *worker) runRank(ctx context.Context, lr LeaseResponse) error {
	d, err := w.bench.Elaborate()
	if err != nil {
		return err
	}

	// The rank's telemetry lane: a lane observer over a local buffer,
	// delivered whole with the report.
	buf := &bufTracer{}
	lane := obs.New(obs.Options{Tracer: buf}).ForWorker(lr.Rank + 1)

	// rankCtx is cancelled when the lease is lost, stopping the engine
	// at its next cycle; leaseLost distinguishes that from a caller
	// cancellation.
	rankCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var leaseLost atomic.Bool
	abandon := func() {
		leaseLost.Store(true)
		cancel()
	}

	wc := specConfig(w.spec, lr.Rank)
	wc.Obs = lane
	pub := newBatchPublisher(rankCtx, w.cl, w.campaign, w.id, lr.Rank, w.flushInterval)
	defer pub.close()
	if w.l1 != nil {
		wc.PlanCache = shippingCache{w.l1, pub}
	}
	// The Sync hook only diffs local coverage into the publisher's
	// pending delta — no I/O at interval boundaries. Lease loss and
	// stop conditions surface through batch responses and heartbeats.
	var publishErr error
	wc.Sync = func(cv *cov.CFGCov, rep *core.Report) bool {
		pub.enqueuePublish(cv, rep.Vectors)
		if w.publishesLeft > 0 {
			w.publishesLeft--
			if w.publishesLeft == 0 {
				publishErr = ErrWorkerDied
				return true
			}
		}
		if pub.lost.Load() {
			abandon()
			return true
		}
		if err := pub.Err(); err != nil {
			publishErr = err
			return true
		}
		return pub.stop.Load()
	}

	eng, err := core.New(d, w.properties, wc)
	if err != nil {
		return err
	}

	// Heartbeat at a third of the TTL until the rank finishes.
	hbDone := make(chan struct{})
	hbStopped := make(chan struct{})
	ttl := time.Duration(lr.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = 5 * time.Second
	}
	go func() {
		defer close(hbStopped)
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-rankCtx.Done():
				return
			case <-tick.C:
				resp, err := w.cl.Heartbeat(rankCtx, HeartbeatRequest{WorkerID: w.id, Rank: lr.Rank, Campaign: w.campaign})
				if err == nil && !resp.OK {
					abandon()
					return
				}
				if err == nil && resp.Stop {
					// Batched publishes don't carry the stop signal back
					// synchronously; relay it from the heartbeat.
					pub.stop.Store(true)
				}
			}
		}
	}()

	rep, err := eng.RunContext(rankCtx)
	close(hbDone)
	<-hbStopped
	if err != nil {
		return err
	}
	if leaseLost.Load() {
		return errLeaseLost
	}
	if publishErr != nil {
		return publishErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Drain the publisher before reporting so queued solve records land;
	// the report itself carries the full cumulative coverage, so lost
	// deltas cannot cost correctness.
	pub.close()

	resp, err := w.cl.Report(ctx, ReportRequest{
		WorkerID: w.id,
		Rank:     lr.Rank,
		Report:   *rep,
		Coverage: CovToWire(eng.Coverage()),
		Events:   buf.take(),
		Campaign: w.campaign,
	})
	if err != nil {
		return err
	}
	if !resp.OK {
		return errLeaseLost
	}
	if resp.Done {
		return errCampaignDone
	}
	return nil
}

// seedFromID hashes a worker ID into a jitter seed (FNV-1a). The
// value only staggers retry backoff; it never touches a trajectory.
func seedFromID(id string) int64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 0x100000001b3
	}
	return int64(h)
}
