package fleet

import (
	"encoding/json"
	"net/http"
	"strings"

	"repro/internal/dist"
	"repro/internal/obs"
)

// ---- HTTP plumbing ----

func decode[T any](w http.ResponseWriter, r *http.Request, req *T) bool {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(req); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(dist.ErrorResponse{Error: msg})
}

// ---- worker-facing endpoints (campaign-routed) ----

// routeWorkerRPCs registers the five worker RPCs. Each answers from the
// campaign its request names.
func (s *Server) routeWorkerRPCs(mux *http.ServeMux) {
	mux.HandleFunc("/v1/join", routed(s, func(q *dist.JoinRequest) string { return q.Campaign },
		func(c *campaign, req *dist.JoinRequest, _ *http.Request) (any, *dist.HTTPError) {
			return c.cs.Join(*req)
		}))
	mux.HandleFunc("/v1/lease", routed(s, func(q *dist.LeaseRequest) string { return q.Campaign },
		func(c *campaign, req *dist.LeaseRequest, _ *http.Request) (any, *dist.HTTPError) {
			if c.cancelled.Load() {
				return dist.LeaseResponse{Rank: -1, Done: true}, nil
			}
			return c.cs.Lease(*req), nil
		}))
	mux.HandleFunc("/v1/heartbeat", routed(s, func(q *dist.HeartbeatRequest) string { return q.Campaign },
		func(c *campaign, req *dist.HeartbeatRequest, _ *http.Request) (any, *dist.HTTPError) {
			resp := c.cs.Heartbeat(*req)
			if c.cancelled.Load() {
				resp.Stop = true
			}
			return resp, nil
		}))
	mux.HandleFunc("/v1/batch", routed(s, func(q *dist.BatchRequest) string { return q.Campaign }, s.serveBatch))
	mux.HandleFunc("/v1/report", routed(s, func(q *dist.ReportRequest) string { return q.Campaign },
		func(c *campaign, req *dist.ReportRequest, _ *http.Request) (any, *dist.HTTPError) {
			return c.cs.Report(*req)
		}))
}

// routed adapts one campaign-routed worker RPC: decode the request,
// resolve the campaign it names, and answer it with serve. A nil
// answer with no error writes nothing (the client went away). A 429
// carries the Retry-After the worker client's backoff honors.
func routed[Req any](s *Server, campaignOf func(*Req) string,
	serve func(*campaign, *Req, *http.Request) (any, *dist.HTTPError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !decode(w, r, &req) {
			return
		}
		c, herr := s.lookup(campaignOf(&req))
		if herr != nil {
			writeErr(w, herr.Code, herr.Msg)
			return
		}
		resp, herr := serve(c, &req, r)
		switch {
		case herr != nil:
			if herr.Code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			writeErr(w, herr.Code, herr.Msg)
		case resp != nil:
			writeJSON(w, resp)
		}
	}
}

// serveBatch is the admission-controlled ingest path: the request is
// enqueued on its campaign's bounded queue and the handler waits for
// the drainer's response. A full queue (depth or bytes) answers 429 +
// Retry-After without touching campaign state — that rejection is the
// backpressure signal, and the worker's delta survives locally until
// a later flush succeeds.
func (s *Server) serveBatch(c *campaign, req *dist.BatchRequest, r *http.Request) (any, *dist.HTTPError) {
	n := r.ContentLength
	if n < 0 {
		n = 0
	}
	reject := func(msg string) (any, *dist.HTTPError) {
		c.c429.Inc()
		s.cRejBatches.Inc()
		s.cRejBytes.Add(n)
		return nil, &dist.HTTPError{Code: http.StatusTooManyRequests, Msg: msg}
	}
	if c.queuedBytes.Load()+n > s.quota.QueueBytes {
		return reject("campaign ingest queue over byte budget")
	}
	in := ingest{req: *req, bytes: n, resp: make(chan batchAnswer, 1)}
	select {
	case c.queue <- in:
	default:
		return reject("campaign ingest queue full")
	}
	c.queuedBytes.Add(n)
	c.gDepth.Set(int64(len(c.queue)))
	c.gBytes.Set(c.queuedBytes.Load())
	select {
	case a := <-in.resp:
		if a.herr != nil {
			return nil, a.herr
		}
		return a.resp, nil
	case <-r.Context().Done():
		// Client gave up; the drainer will still apply the batch and
		// its buffered response just gets dropped.
		return nil, nil
	}
}

// ---- control surface ----

// handleCampaigns serves the collection: POST creates, GET lists.
func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req CreateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "malformed request: "+err.Error())
			return
		}
		c, herr := s.admit(req, false)
		if herr != nil {
			if herr.Code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			writeErr(w, herr.Code, herr.Msg)
			return
		}
		w.WriteHeader(http.StatusCreated)
		writeJSON(w, c.status())
	case http.MethodGet:
		resp := ListResponse{Campaigns: []CampaignStatus{}}
		for _, c := range s.campaignsSorted() {
			resp.Campaigns = append(resp.Campaigns, c.status())
		}
		writeJSON(w, resp)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "POST or GET required")
	}
}

// handleCampaign serves one campaign: GET status, GET <name>/report,
// DELETE cancel.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/campaigns/")
	name, sub := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		name, sub = rest[:i], rest[i+1:]
	}
	c, herr := s.lookup(name)
	if herr != nil {
		writeErr(w, herr.Code, herr.Msg)
		return
	}
	switch {
	case r.Method == http.MethodGet && sub == "":
		writeJSON(w, c.status())
	case r.Method == http.MethodGet && sub == "report":
		rep, err := s.Report(name)
		if err != nil {
			writeErr(w, http.StatusConflict, err.Error())
			return
		}
		writeJSON(w, rep)
	case r.Method == http.MethodDelete && sub == "":
		// Cancel: trip the stop signal and mark the campaign. Workers
		// stop at their next boundary; the journal and final report
		// (marked Interrupted) remain fetchable.
		c.cancelled.Store(true)
		c.cs.ForceStop()
		writeJSON(w, c.status())
	default:
		writeErr(w, http.StatusNotFound, "unknown campaign endpoint")
	}
}

// handleFleet serves the whole-fleet rollup.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	st := FleetStatus{Campaigns: []CampaignStatus{}, UptimeNS: int64(sinceStart(s))}
	for _, c := range s.campaignsSorted() {
		st.Campaigns = append(st.Campaigns, c.status())
	}
	writeJSON(w, st)
}

// handleMetrics exports the fleet-level admission instruments
// (unlabeled) followed by every campaign's registry under a
// campaign="<name>" label on one endpoint.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	_ = obs.WritePrometheusLabeled(w, s.fleetReg, nil)
	for _, c := range s.campaignsSorted() {
		_ = obs.WritePrometheusLabeled(w, c.reg, map[string]string{"campaign": c.name})
	}
}
