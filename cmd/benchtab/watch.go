package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/fleet"
)

// The watch experiment measures what the streaming health plane costs:
// the same fixed-budget 2-worker fleet campaign runs with the watch
// plane enabled (publish/solve hooks feeding the health engine, the
// periodic sweep, alert journaling, the subscription bus) and with it
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
		note: "on arm hosts the campaign with the streaming health plane on (hooks, sweep, alert " +
			"journal, bus); off arm runs the nil-hook path",
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
			var snap fleet.WatchSnapshot
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
