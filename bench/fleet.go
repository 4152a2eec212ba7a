package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/fleet"
)

// fleetCampaign is the campaign name the benchmark creates.
const fleetCampaign = "bench"

// fleetStats is what the coordinator reports about a fleet campaign,
// plus the wire timings of a traced run.
type fleetStats struct {
	Batches      int64      `json:"batches"`
	Rejected429  int64      `json:"rejected_429"`
	JournalBytes int64      `json:"journal_bytes"`
	Wire         *wireStats `json:"wire,omitempty"`
}

// wireStats summarizes every worker RPC of a traced fleet run.
type wireStats struct {
	RPCs      int     `json:"rpcs"`
	WaitS     float64 `json:"wait_s"`
	P50US     float64 `json:"p50_us"`
	TailUS    float64 `json:"tail_us"`
	TailPct   float64 `json:"tail_pct"`
	Non2xx    int     `json:"non2xx"`
	BytesSent int64   `json:"bytes_sent"`
}

// timedTransport times each round trip up to the response headers, on
// the recorder's clock. The traced fleet run installs it as
// http.DefaultTransport, which the dist client uses.
type timedTransport struct {
	next http.RoundTripper
	rec  *recorder

	mu     sync.Mutex
	calls  []rpcCall
	non2xx int
	sent   int64
}

// rpcCall is one timed round trip.
type rpcCall struct {
	path       string
	start, end int64
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := t.rec.now()
	resp, err := t.next.RoundTrip(r)
	end := t.rec.now()
	t.mu.Lock()
	t.calls = append(t.calls, rpcCall{path: r.URL.Path, start: start, end: end})
	if err != nil || resp.StatusCode/100 != 2 {
		t.non2xx++
	}
	if r.ContentLength > 0 {
		t.sent += r.ContentLength
	}
	t.mu.Unlock()
	return resp, err
}

func (t *timedTransport) stats() *wireStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := &wireStats{RPCs: len(t.calls), Non2xx: t.non2xx, BytesSent: t.sent}
	us := make([]float64, len(t.calls))
	for i, c := range t.calls {
		us[i] = float64(c.end-c.start) / 1e3
		w.WaitS += us[i] / 1e6
	}
	w.P50US = median(us)
	w.TailUS, w.TailPct = tail(us)
	return w
}

// runFleet hosts the rep's campaign on an in-process fleet coordinator
// with a journal under the job's work directory, creates it over HTTP
// and drains it with one dist.RunWorker per rank. Set-up is NewServer
// plus create, timed setupReps times; the last server runs the
// campaign. A non-nil wire transport carries the workers' RPCs.
func runFleet(j job, wire *timedTransport) (*childResult, error) {
	name := j.W.Designs[0]
	_, properties, err := resolve(name)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(fleet.CreateRequest{Name: fleetCampaign, Spec: j.W.spec(j.Seed)})
	if err != nil {
		return nil, err
	}
	harness := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	defer harness.CloseIdleConnections()

	var srv *fleet.Server
	shutdown := func() error {
		if srv == nil {
			return nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		srv = nil
		return err
	}
	defer shutdown()

	res := &childResult{}
	setups := make([]float64, 0, setupReps)
	var journal string
	for i := 0; i < setupReps; i++ {
		if err := shutdown(); err != nil {
			return nil, err
		}
		dir := filepath.Join(j.WorkDir, fmt.Sprint(i))
		t0 := time.Now()
		if srv, err = fleet.NewServer("127.0.0.1:0", fleet.Config{JournalDir: dir}); err != nil {
			return nil, err
		}
		resp, err := harness.Post("http://"+srv.Addr()+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return nil, fmt.Errorf("create campaign: HTTP %d", resp.StatusCode)
		}
		setups = append(setups, float64(time.Since(t0)))
		journal = filepath.Join(dir, fleetCampaign+".jsonl")
	}
	res.SetupNS = int64(median(setups))

	if wire != nil {
		orig := http.DefaultTransport
		wire.next = orig
		http.DefaultTransport = wire
		defer func() { http.DefaultTransport = orig }()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	runtime.GC()
	rt0 := readRuntime()
	start := time.Now()
	addr := srv.Addr()
	errs := make([]error, j.W.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < j.W.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = dist.RunWorker(ctx, dist.WorkerConfig{
				Addr: addr, WorkerID: fmt.Sprintf("bench-w%d", r),
				Campaign: fleetCampaign, RankHint: r, MaxRanks: 1,
			})
		}(r)
	}
	rep, err := srv.WaitCampaign(ctx, fleetCampaign)
	res.RunNS = int64(time.Since(start))
	res.Runtime.add(rt0, readRuntime())
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for r, werr := range errs {
		if werr != nil {
			return nil, fmt.Errorf("rank %d: %w", r, werr)
		}
	}

	var st fleet.CampaignStatus
	resp, err := harness.Get("http://" + srv.Addr() + "/v1/campaigns/" + fleetCampaign)
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("campaign status: %w", err)
	}
	// The journal is complete once the server has closed it.
	if err := shutdown(); err != nil {
		return nil, err
	}
	fi, err := os.Stat(journal)
	if err != nil {
		return nil, err
	}
	res.Fleet = &fleetStats{Batches: st.Batches, Rejected429: st.Rejected429, JournalBytes: fi.Size()}
	if wire != nil {
		res.Fleet.Wire = wire.stats()
	}
	res.Designs = []designRun{{Name: name, Report: rep.Merged, Planted: propNames(properties)}}
	return res, nil
}
