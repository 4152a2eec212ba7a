package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/fleet"
	"repro/internal/watch"
)

// The watch experiment measures what the health plane costs: the same
// fixed-budget 2-worker fleet campaign runs with the watch plane
// enabled (publish/solve hooks feeding the health engine, the periodic
// sweep, alert journaling) and with it
// disabled (the nil-hook path the zero-alloc test pins). The work
// counter is the number of health-series samples /v1/watch/snapshot
// holds after the on arm; the alerts it raised are informational.

func runWatch(seed int64, runs int, w io.Writer) (any, error) {
	// The budget stretches well past scmi_mailbox's coverage saturation:
	// the run must be long enough that per-run fixed costs (server
	// startup, worker join) amortize out of the overhead ratio.
	spec, _ := campaign("scmi_mailbox", 12000, 2, seed)
	spec.Interval = 50
	return runOverhead(overheadExp{
		name:     "watch",
		title:    "Watch-plane overhead",
		bench:    spec.Bench,
		budget:   spec.MaxVectors,
		workers:  spec.Workers,
		runs:     5,
		workUnit: "health_samples",
		note: "on arm hosts the campaign with the health plane on (hooks, sweep, alert " +
			"journal); off arm runs the nil-hook path",
		run: func(on bool) (instrumentRun, error) {
			dir, err := os.MkdirTemp("", "benchwatch")
			if err != nil {
				return instrumentRun{}, err
			}
			defer os.RemoveAll(dir)
			srv, err := fleet.NewServer("127.0.0.1:0", fleet.Config{JournalDir: dir, Watch: on})
			if err != nil {
				return instrumentRun{}, err
			}
			defer srv.Shutdown(context.Background())

			start := time.Now()
			if err := createCampaign(srv.Addr(), "watchbench", spec); err != nil {
				return instrumentRun{}, err
			}
			if err := drainCampaign(srv.Addr(), "watchbench", spec.Workers, "wb"); err != nil {
				return instrumentRun{}, err
			}
			rep, err := srv.WaitCampaign(context.Background(), "watchbench")
			if err != nil {
				return instrumentRun{}, err
			}
			run := instrumentRun{wallNS: time.Since(start).Nanoseconds(), report: rep.Merged}
			if !on {
				return run, nil
			}
			sresp, err := http.Get("http://" + srv.Addr() + "/v1/watch/snapshot")
			if err != nil {
				return instrumentRun{}, err
			}
			defer sresp.Body.Close()
			var snap watch.Snapshot
			if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
				return instrumentRun{}, fmt.Errorf("watch snapshot: %w", err)
			}
			var alerts int64
			for _, h := range snap.Campaigns {
				run.work += int64(len(h.Series))
				alerts += int64(h.AlertsTotal)
			}
			run.info = map[string]int64{"alerts": alerts}
			return run, nil
		},
	}, seed, runs, w)
}

// createCampaign submits spec as a named campaign through the fleet's
// /v1/campaigns API.
func createCampaign(addr, name string, spec dist.CampaignSpec) error {
	body, err := json.Marshal(fleet.CreateRequest{Name: name, Spec: spec})
	if err != nil {
		return err
	}
	resp, err := http.Post("http://"+addr+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create %s: status %d", name, resp.StatusCode)
	}
	return nil
}

// drainCampaign runs one worker per rank against the named campaign
// and waits for all of them.
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
