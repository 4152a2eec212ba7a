package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/dist"
	"repro/internal/fleet"
)

// The watch experiment measures what the streaming health plane costs:
// the same fixed-budget 2-worker fleet campaign runs with the watch
// plane enabled (publish/solve hooks feeding the health engine, the
// periodic sweep, alert journaling, the subscription bus) and with it
// disabled (the nil-hook path the zero-alloc test pins). Runs
// interleave and each arm keeps its minimum wall time, mirroring the
// flight and prof experiments. Both arms must produce identical merged
// coverage — the watch plane is an observer, never a participant. The
// record is written as BENCH_watch.json and the experiment fails if
// watching costs more than 5% wall time.

// WatchBench is the BENCH_watch.json record.
type WatchBench struct {
	Schema  string `json:"schema"`
	Bench   string `json:"bench"`
	Budget  uint64 `json:"budget"`
	Workers int    `json:"workers"`
	Runs    int    `json:"runs"`
	Cores   int    `json:"cores"`
	Seed    int64  `json:"seed"`
	Note    string `json:"note"`

	WatchWallNS   int64 `json:"watch_wall_ns"`
	NoWatchWallNS int64 `json:"no_watch_wall_ns"`

	// AlertsJournaled counts the alerts the watched arm raised (the
	// plane must actually do its work to be worth timing).
	AlertsJournaled int  `json:"alerts_journaled"`
	MergedEqual     bool `json:"merged_equal"`

	// Overhead is watch-on wall over watch-off wall (min of Runs
	// interleaved runs per arm).
	Overhead float64 `json:"overhead"`
	Within5  bool    `json:"within_5pct"`
}

// watchBudget stretches well past scmi_mailbox's coverage saturation:
// the run must be long enough that per-run fixed costs (server
// startup, worker join) amortize out of the overhead ratio.
const (
	watchBudget  = 12000
	watchWorkers = 2
)

func runWatchExp(seed int64, runs int, outPath string, w io.Writer) error {
	if runs < 1 {
		runs = 5
	}
	spec := dist.CampaignSpec{
		Bench:                 "scmi_mailbox",
		Interval:              50,
		Threshold:             2,
		MaxVectors:            watchBudget,
		Seed:                  seed,
		Workers:               watchWorkers,
		UseSnapshots:          true,
		ContinueAfterCoverage: true,
	}

	var rec WatchBench
	minWatch, minPlain := int64(0), int64(0)
	var refVectors uint64
	var refPoints int
	rec.MergedEqual = true
	for i := 0; i < runs; i++ {
		for _, watched := range []bool{true, false} {
			wall, vectors, points, alerts, err := runWatchArm(spec, watched, seed)
			if err != nil {
				return fmt.Errorf("watch: run %d (watch=%v): %w", i, watched, err)
			}
			if refVectors == 0 {
				refVectors, refPoints = vectors, points
			} else if vectors != refVectors || points != refPoints {
				rec.MergedEqual = false
			}
			if watched {
				rec.AlertsJournaled = alerts
				if minWatch == 0 || wall < minWatch {
					minWatch = wall
				}
			} else if minPlain == 0 || wall < minPlain {
				minPlain = wall
			}
		}
	}

	rec.Schema = "symbfuzz-bench-watch/v1"
	rec.Bench = spec.Bench
	rec.Budget = watchBudget
	rec.Workers = watchWorkers
	rec.Runs = runs
	rec.Cores = runtime.NumCPU()
	rec.Seed = seed
	rec.Note = "watch arm hosts the campaign with the streaming health plane on (hooks, sweep, " +
		"alert journal, bus); the no-watch arm runs the nil-hook path; each arm keeps its " +
		"minimum wall time over interleaved runs, and both arms' merged coverage is asserted equal"
	rec.WatchWallNS = minWatch
	rec.NoWatchWallNS = minPlain
	rec.Overhead = float64(minWatch) / float64(minPlain)
	rec.Within5 = rec.Overhead <= 1.05

	fmt.Fprintf(w, "Watch-plane overhead (%s, %d vectors, %d workers, min of %d runs per arm)\n",
		spec.Bench, watchBudget, watchWorkers, runs)
	fmt.Fprintf(w, "  watch on:  %10.2fms  (%d alerts journaled)\n",
		float64(rec.WatchWallNS)/1e6, rec.AlertsJournaled)
	fmt.Fprintf(w, "  watch off: %10.2fms\n", float64(rec.NoWatchWallNS)/1e6)
	fmt.Fprintf(w, "  overhead:  %10.4fx\n", rec.Overhead)
	if !rec.MergedEqual {
		fmt.Fprintln(w, "  WARNING: merged coverage diverged between arms")
	}

	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	if !rec.MergedEqual {
		return fmt.Errorf("watch: merged coverage diverged between watched and unwatched arms")
	}
	if !rec.Within5 {
		return fmt.Errorf("watch: watching costs %.2f%% wall time, budget is 5%%",
			(rec.Overhead-1)*100)
	}
	return nil
}

// runWatchArm hosts one fleet server (watched or not), runs the
// campaign to completion, and returns the wall time plus the merged
// totals and journaled alert count.
func runWatchArm(spec dist.CampaignSpec, watched bool, seed int64) (wall int64, vectors uint64, points, alerts int, err error) {
	dir, err := os.MkdirTemp("", "benchwatch")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer os.RemoveAll(dir)

	srv, err := fleet.NewServer("127.0.0.1:0", fleet.Config{
		JournalDir: dir,
		Watch:      watched,
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer srv.Shutdown(context.Background())

	body, err := json.Marshal(fleet.CreateRequest{Name: "watchbench", Spec: spec})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	start := time.Now()
	resp, err := http.Post("http://"+srv.Addr()+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return 0, 0, 0, 0, fmt.Errorf("create: status %d", resp.StatusCode)
	}

	if err := drainCampaign(srv.Addr(), "watchbench", spec.Workers, "wb"); err != nil {
		return 0, 0, 0, 0, err
	}
	rep, err := srv.WaitCampaign(context.Background(), "watchbench")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	wall = int64(time.Since(start))

	if watched {
		var snap fleet.WatchSnapshot
		sresp, err := http.Get("http://" + srv.Addr() + "/v1/watch/snapshot")
		if err == nil {
			if json.NewDecoder(sresp.Body).Decode(&snap) == nil {
				for _, h := range snap.Campaigns {
					alerts += h.AlertsTotal
				}
			}
			sresp.Body.Close()
		}
	}
	return wall, rep.Merged.Vectors, rep.Merged.FinalPoints, alerts, nil
}
