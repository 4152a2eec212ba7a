// Package par is the parallel campaign orchestrator: N core.Engine
// workers run concurrently — each with its own elaborated design
// instance, simulator, and seed-derived RNG — against a shared global
// coverage frontier, a statically sharded work queue over the CFG edge
// space, and a cross-worker solved-plan cache.
//
// The merged report is deterministic for a fixed seed set regardless
// of goroutine interleaving. That property is engineered, not assumed:
//
//   - Workers run the unmodified Algorithm-1 loop against their LOCAL
//     coverage. The global frontier is a sink (status, curve, opt-in
//     stop conditions), never a steering input.
//   - The "shared work queue" is static shard ownership (core.ShardSpec):
//     each uncovered CFG edge belongs to exactly one worker until that
//     worker's whole shard is locally drained, so no two workers burn
//     solver time on the same frontier target and claim order cannot
//     depend on scheduling.
//   - The solved-plan cache is a pure memoization with canonical
//     per-key seeds: a hit returns byte-for-byte what the live solve
//     would have produced, so cache warmth changes wall time only.
//   - The merge is by worker rank, not arrival order: coverage is a
//     set union (idempotent), numeric stats are commutative sums, bugs
//     are concatenated in rank order and deduped by (property, cycle).
//
// The only nondeterministic outputs are wall-clock values (Timings NS
// fields, TimeToTargetNS) and the live campaign curve, which is
// publish-ordered by design.
//
// The frontier, the plan cache, and the rank merge are exported
// (Frontier, SolveCache, MergeReports) so internal/dist can run the
// same campaign across processes: the coordinator hosts the frontier
// and the merge, and each remote worker keeps its own plan cache. The
// determinism argument transfers unchanged because a cache hit equals
// the live solve, so sharing a cache or not changes wall time only.
package par

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/props"
)

// Config parameterizes a parallel campaign. The embedded core.Config
// is the per-worker Algorithm-1 configuration; Seed is the campaign
// base seed (worker r runs with WorkerSeed(Seed, r)) and Obs, when
// set, is the campaign-level observer — workers derive per-lane
// observers from it via ForWorker.
type Config struct {
	core.Config

	// Workers is the worker count; <= 1 runs a single worker (whose
	// trajectory is identical to a plain engine run with the same
	// core.Config, since sharding and plan sharing are disabled).
	Workers int

	// StopAtPoints, when > 0, stops every worker at the first interval
	// boundary after the global point count reaches the target
	// (benchmarking time-to-coverage). The stop vector count depends
	// on scheduling; leave 0 for deterministic fixed-budget campaigns.
	StopAtPoints int
}

// Report is a parallel campaign's outcome: the deterministic merged
// report plus per-worker reports (by rank) and campaign-level stats.
type Report struct {
	Workers int
	// Seeds lists each worker's derived seed, by rank.
	Seeds []int64
	// Merged is the rank-merged campaign report. Coverage fields are
	// the set union over workers; counters are sums; bugs are deduped
	// by (property, cycle) in rank order; PrunedTargets and GraphStats
	// come from worker 0 (static per design); Curve is left empty —
	// the interleaving-ordered live curve is in Report.Curve.
	Merged *core.Report
	// PerWorker holds each worker's own report, by rank.
	PerWorker []*core.Report

	// WallNS is the campaign wall time (launch to last worker join).
	WallNS int64
	// TargetPoints echoes StopAtPoints; TimeToTargetNS is the wall
	// time at which the global frontier first reached it (0 if not
	// configured or not reached).
	TargetPoints   int
	TimeToTargetNS int64

	// CacheHits / CacheMisses are the plan-cache tallies summed over
	// the workers (hits+misses is deterministic; the split is not).
	CacheHits, CacheMisses int64

	// Curve is the live campaign coverage curve (global points vs
	// summed vectors, publish-ordered — a monitoring artifact).
	Curve []obs.CurvePoint
}

// WorkerSeed derives worker r's engine seed from the campaign base
// seed. Rank 0 keeps the base seed, so a 1-worker campaign reproduces
// the plain single-engine run. The derivation is a pure function of
// (base, rank): a distributed replacement worker taking over a dead
// worker's rank re-derives the same seed and therefore reproduces the
// lost worker's trajectory exactly.
func WorkerSeed(base int64, rank int) int64 {
	if rank == 0 {
		return base
	}
	return base + int64(rank)*0x9E3779B9
}

// Run executes a parallel campaign. factory elaborates one fresh
// design instance per worker (instances must not share mutable state);
// properties are shared (immutable ASTs — checker state is per-env).
func Run(factory func() (*elab.Design, error), properties []*props.Property, c Config) (*Report, error) {
	return RunContext(context.Background(), factory, properties, c)
}

// RunContext is Run with cancellation: when ctx is cancelled every
// worker stops at its next interval boundary, the partial per-worker
// reports are merged as usual, and the merged report carries
// Interrupted=true.
func RunContext(ctx context.Context, factory func() (*elab.Design, error), properties []*props.Property, c Config) (*Report, error) {
	n := c.Workers
	if n < 1 {
		n = 1
	}
	base := c.Config
	baseObs := base.Obs

	var cache *SolveCache
	if n > 1 {
		cache = NewSolveCache()
	}

	fr := NewFrontier(n, c.StopAtPoints, baseObs)

	engines := make([]*core.Engine, n)
	seeds := make([]int64, n)
	for r := 0; r < n; r++ {
		d, err := factory()
		if err != nil {
			return nil, fmt.Errorf("par: worker %d: %w", r, err)
		}
		wc := base
		wc.Seed = WorkerSeed(base.Seed, r)
		wc.SharedSeed = base.Seed
		seeds[r] = wc.Seed
		if n > 1 {
			wc.Shard = core.ShardSpec{Rank: r, Workers: n}
		}
		if cache != nil {
			wc.PlanCache = cache
		}
		if wc.CFG.Pin != nil {
			// Each engine writes its reset pin into this map during
			// construction; give every worker its own copy.
			pin := make(map[string]logic.BV, len(wc.CFG.Pin))
			for k, v := range wc.CFG.Pin {
				pin[k] = v
			}
			wc.CFG.Pin = pin
		}
		wc.Obs = baseObs.ForWorker(r + 1)
		rank := r
		wc.Sync = func(cv *cov.CFGCov, rep *core.Report) bool {
			fr.Publish(rank, cv, rep.Vectors)
			return fr.ShouldStop()
		}
		eng, err := core.New(d, properties, wc)
		if err != nil {
			return nil, fmt.Errorf("par: worker %d: %w", r, err)
		}
		engines[r] = eng
	}

	baseObs.CampaignStart(0, 0)
	start := time.Now()
	fr.start = start

	reports := make([]*core.Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rep, err := engines[rank].RunContext(ctx)
			if err != nil {
				errs[rank] = err
				fr.ForceStop() // let the other workers bail at their next boundary
				return
			}
			reports[rank] = rep
		}(r)
	}
	wg.Wait()
	wallNS := int64(time.Since(start))

	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("par: worker %d: %w", r, err)
		}
	}

	covs := make([]*cov.CFGCov, n)
	for r, e := range engines {
		covs[r] = e.Coverage()
	}
	merged := MergeReports(covs, reports)
	out := &Report{
		Workers:        n,
		Seeds:          seeds,
		Merged:         merged,
		PerWorker:      reports,
		WallNS:         wallNS,
		TargetPoints:   c.StopAtPoints,
		TimeToTargetNS: fr.TimeToTargetNS(),
		Curve:          fr.Curve(),
	}
	if cache != nil {
		out.CacheHits, out.CacheMisses = cache.Hits(), cache.Misses()
	}

	FinalizeMetrics(baseObs, merged)
	baseObs.Cycles(merged.Cycles)
	baseObs.CampaignEnd(merged.Vectors, merged.FinalPoints)
	return out, nil
}
