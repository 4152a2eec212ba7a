package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fleet"
	"repro/internal/par"
	"repro/internal/prof"
)

// The fleet experiment measures what the v4 batched wire carries and
// what a shared coordinator sustains. Arm one runs a fixed-budget
// 2-worker campaign on a loopback fleet and tallies the /v1/batch
// requests the coordinator ingested (coalesced coverage deltas plus
// piggybacked plan-cache stores); the merged report must equal the
// in-process par.Run of the same campaign. Arm two multiplexes several
// named campaigns on one fleet server and records the aggregate vector
// throughput across all ranks. The record is written as
// BENCH_fleet.json.

// FleetRow is one design's batched-wire measurement.
type FleetRow struct {
	Bench   string `json:"bench"`
	Budget  uint64 `json:"budget"`
	Workers int    `json:"workers"`

	// BatchCalls / BatchBytes tally the /v1/batch requests and their
	// payload bytes — the whole publish plane.
	BatchCalls int64 `json:"batch_calls"`
	BatchBytes int64 `json:"batch_bytes"`

	// MergedEqual records that the fleet's merged report equals the
	// in-process par.Run report on every deterministic field —
	// full-budget campaigns are deterministic, so anything less is a
	// wire bug.
	MergedEqual bool `json:"merged_equal"`
}

// FleetBench is the BENCH_fleet.json record.
type FleetBench struct {
	Schema string `json:"schema"`
	Cores  int    `json:"cores"`
	Seed   int64  `json:"seed"`
	Note   string `json:"note"`

	Rows []FleetRow `json:"rows"`

	// The multi-campaign arm: Campaigns concurrent named campaigns of
	// FleetWorkers ranks each on one fleet server, total vectors over
	// wall time.
	FleetCampaigns     int     `json:"fleet_campaigns"`
	FleetWorkers       int     `json:"fleet_workers_per_campaign"`
	FleetTotalVectors  uint64  `json:"fleet_total_vectors"`
	FleetWallNS        int64   `json:"fleet_wall_ns"`
	FleetVectorsPerSec float64 `json:"fleet_vectors_per_sec"`
}

var fleetTargets = []struct {
	name   string
	budget uint64
}{
	{"scmi_mailbox", 3000},
	{"bus_arb", 8000},
}

func runFleetExp(seed int64, outPath string, w io.Writer) error {
	const workers = 2
	bench := FleetBench{
		Schema: "symbfuzz-bench-fleet/v1",
		Cores:  runtime.NumCPU(),
		Seed:   seed,
		Note: "batch_bytes tallies the /v1/batch payloads (coverage deltas + plan-cache stores) of a " +
			"fixed-budget campaign; fleet_vectors_per_sec is aggregate throughput of concurrent campaigns " +
			"multiplexed on one fleet coordinator over loopback",
	}

	for _, tgt := range fleetTargets {
		row, err := measureWire(tgt.name, tgt.budget, workers, seed)
		if err != nil {
			return fmt.Errorf("fleet: %s: %w", tgt.name, err)
		}
		bench.Rows = append(bench.Rows, *row)
	}

	if err := measureFleetAggregate(&bench, seed); err != nil {
		return fmt.Errorf("fleet: aggregate: %w", err)
	}

	fmt.Fprintf(w, "Publish wire (delta batches, %d workers, full budget)\n", workers)
	fmt.Fprintf(w, "%-16s %8s %10s %12s %8s\n", "bench", "budget", "batch rpcs", "batch bytes", "parity")
	for _, r := range bench.Rows {
		parity := "ok"
		if !r.MergedEqual {
			parity = "MISMATCH"
		}
		fmt.Fprintf(w, "%-16s %8d %10d %12d %8s\n", r.Bench, r.Budget, r.BatchCalls, r.BatchBytes, parity)
	}
	fmt.Fprintf(w, "\nFleet aggregate: %d campaigns x %d workers, %d vectors in %.2fs = %.0f vectors/sec\n",
		bench.FleetCampaigns, bench.FleetWorkers, bench.FleetTotalVectors,
		float64(bench.FleetWallNS)/1e9, bench.FleetVectorsPerSec)

	out, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(out, '\n'), 0o644)
}

// measureWire runs the campaign on a loopback fleet, tallies what
// crossed the wire on the publish plane, and checks the merged report
// against the in-process run.
func measureWire(benchName string, budget uint64, workers int, seed int64) (*FleetRow, error) {
	spec := dist.CampaignSpec{
		Bench:                 benchName,
		Interval:              100,
		Threshold:             2,
		MaxVectors:            budget,
		Seed:                  seed,
		Workers:               workers,
		UseSnapshots:          true,
		ContinueAfterCoverage: true,
	}
	b, properties, err := dist.ResolveSpec(spec)
	if err != nil {
		return nil, err
	}
	local, err := par.Run(b.Elaborate, properties, par.Config{Config: core.Config{
		Interval: spec.Interval, Threshold: spec.Threshold, MaxVectors: spec.MaxVectors, Seed: spec.Seed,
		UseSnapshots: spec.UseSnapshots, ContinueAfterCoverage: spec.ContinueAfterCoverage,
	}, Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("in-process run: %w", err)
	}
	rep, wire, err := hostOnFleet(spec, 0)
	if err != nil {
		return nil, err
	}

	row := &FleetRow{Bench: benchName, Budget: budget, Workers: workers,
		MergedEqual: sameReport(local.Merged, rep.Merged)}
	for _, e := range wire {
		if e.RPC == "batch" {
			row.BatchCalls += e.Calls
			row.BatchBytes += e.BytesIn
		}
	}
	return row, nil
}

// hostOnFleet runs spec as the implicit campaign of a loopback fleet
// server (the -serve path), drains it with one worker per rank, and
// returns the merged report plus the campaign's wire ledger. A
// positive stopAt arms the frontier's stop-at-points condition.
func hostOnFleet(spec dist.CampaignSpec, stopAt int) (*par.Report, []prof.WireEntry, error) {
	srv, err := fleet.NewServer("127.0.0.1:0", fleet.Config{})
	if err != nil {
		return nil, nil, err
	}
	defer srv.Shutdown(context.Background())
	cs, err := srv.Host(dist.CoordConfig{Spec: spec, StopAtPoints: stopAt})
	if err != nil {
		return nil, nil, err
	}
	if err := drainCampaign(srv.Addr(), "", spec.Workers, "bench"); err != nil {
		return nil, nil, err
	}
	rep, err := srv.WaitCampaign(context.Background(), "")
	return rep, cs.WireLedger(), err
}

// drainCampaign runs one worker per rank against the named campaign
// (empty: the fleet's sole campaign) and waits for all of them.
func drainCampaign(addr, campaign string, ranks int, idPrefix string) error {
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for i := 0; i < ranks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(context.Background(), dist.WorkerConfig{
				Addr: addr, Campaign: campaign, WorkerID: fmt.Sprintf("%s-w%d", idPrefix, i), RankHint: i,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}
	return nil
}

// sameReport compares two merged reports on every deterministic field:
// wall-clock timings are zeroed, and the plan-cache hit/miss split,
// which depends on which rank solved first, is folded into its sum.
func sameReport(a, b *core.Report) bool {
	norm := func(r *core.Report) core.Report {
		c := *r
		c.Timings.TotalNS, c.Timings.FuzzNS, c.Timings.SymbolicNS = 0, 0, 0
		c.Timings.RollbackNS, c.Timings.VCDNS = 0, 0
		c.Timings.Solve.BlastNS, c.Timings.Solve.CDCLNS = 0, 0
		c.SolveCacheHits += c.SolveCacheMisses
		c.SolveCacheMisses = 0
		return c
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// measureFleetAggregate multiplexes campaigns on one fleet server and
// records the aggregate vector throughput.
func measureFleetAggregate(bench *FleetBench, seed int64) error {
	const (
		campaigns = 3
		workers   = 2
		budget    = 2000
	)
	dir, err := os.MkdirTemp("", "benchfleet")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	srv, err := fleet.NewServer("127.0.0.1:0", fleet.Config{JournalDir: dir})
	if err != nil {
		return err
	}
	defer srv.Shutdown(context.Background())

	names := make([]string, campaigns)
	start := time.Now()
	for i := 0; i < campaigns; i++ {
		names[i] = fmt.Sprintf("bench-%d", i)
		req := fleet.CreateRequest{
			Name: names[i],
			Spec: dist.CampaignSpec{
				Bench:                 "scmi_mailbox",
				Interval:              100,
				Threshold:             2,
				MaxVectors:            budget,
				Seed:                  seed + int64(i),
				Workers:               workers,
				UseSnapshots:          true,
				ContinueAfterCoverage: true,
			},
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := http.Post("http://"+srv.Addr()+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("create %s: status %d", names[i], resp.StatusCode)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, campaigns)
	for c := 0; c < campaigns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = drainCampaign(srv.Addr(), names[c], workers, fmt.Sprintf("agg-c%d", c))
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", names[c], err)
		}
	}

	ctx := context.Background()
	var total uint64
	for _, name := range names {
		rep, err := srv.WaitCampaign(ctx, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		total += rep.Merged.Vectors
	}
	wall := time.Since(start)

	bench.FleetCampaigns = campaigns
	bench.FleetWorkers = workers
	bench.FleetTotalVectors = total
	bench.FleetWallNS = int64(wall)
	if wall > 0 {
		bench.FleetVectorsPerSec = float64(total) / wall.Seconds()
	}
	return nil
}
