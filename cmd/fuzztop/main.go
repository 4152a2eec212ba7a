// Command fuzztop is the fleet's terminal dashboard: a live top-style
// view of every hosted campaign's progress, health score, and active
// alerts, polled from the coordinator's /v1/fleet and
// /v1/watch/snapshot documents.
//
// Usage:
//
//	fuzztop -addr host:7070          # live view, redrawn every -interval
//	fuzztop -addr host:7070 -once    # render one frame to stdout and exit
//
// -once is byte-deterministic for a settled fleet: the frame carries
// no timestamps, durations, or map-order output, so two captures of
// the same fleet state compare equal — which is how CI pins it.
// Against a fleet running without the watch plane, fuzztop degrades to
// the progress columns (health shows "-").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/watch"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "fleet coordinator address")
	once := flag.Bool("once", false, "render a single frame to stdout and exit")
	interval := flag.Duration("interval", time.Second, "live-mode redraw interval")
	flag.Parse()
	base := "http://" + strings.TrimPrefix(strings.TrimRight(*addr, "/"), "http://")

	if *once {
		m, err := fetchModel(base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fuzztop:", err)
			os.Exit(1)
		}
		os.Stdout.WriteString(render(m))
		return
	}
	if err := live(base, *interval); err != nil {
		fmt.Fprintln(os.Stderr, "fuzztop:", err)
		os.Exit(1)
	}
}

// fetchModel assembles one frame's model from the one-shot surfaces:
// /v1/fleet for progress, /v1/watch/snapshot for health (absent —
// 404 — when the watch plane is disabled).
func fetchModel(base string) (model, error) {
	m := model{Health: map[string]watch.CampaignHealth{}}
	var fs fleet.FleetStatus
	if err := getJSON(base+"/v1/fleet", &fs); err != nil {
		return m, err
	}
	m.Campaigns = fs.Campaigns
	var snap watch.Snapshot
	switch err := getJSON(base+"/v1/watch/snapshot", &snap); {
	case err == nil:
		m.Watch = true
		for _, h := range snap.Campaigns {
			m.Health[h.Campaign] = h
		}
	case strings.Contains(err.Error(), "status 404"):
		// watch plane disabled: progress columns only
	default:
		return m, err
	}
	return m, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// live redraws one polled frame per interval until a fetch fails.
func live(base string, interval time.Duration) error {
	for {
		m, err := fetchModel(base)
		if err != nil {
			return err
		}
		draw(m)
		time.Sleep(interval)
	}
}

// draw repaints the terminal with one frame.
func draw(m model) {
	os.Stdout.WriteString("\x1b[H\x1b[2J" + render(m))
}
