package fleet

import (
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/watch"
)

// The fleet's watch plane: the dist-layer publish/solve hooks feed the
// deterministic health engine, a periodic sweep observes what the wire
// cannot (expired leases, queue occupancy, budget burn), and every
// raised alert is journaled (kill -9 durable), folded into the
// campaign trace as a typed span, and counted on the campaign's
// registry. Readers poll /v1/watch/snapshot.

// defaultSweepInterval paces the watch sweep when Config.SweepInterval
// is zero.
const defaultSweepInterval = 500 * time.Millisecond

func (s *Server) sweepInterval() time.Duration {
	if s.cfg.SweepInterval > 0 {
		return s.cfg.SweepInterval
	}
	return defaultSweepInterval
}

// watchTNS is the wall-clock annotation stamped on watch events —
// never part of an alert's identity.
func (s *Server) watchTNS() int64 { return int64(time.Since(s.start)) }

// watchPublish is the OnPublish hook: it synthesizes one interval
// sample per applied coverage publish and runs the stall detector on
// it. The sample ordinal is the fleet's own per-rank arrival counter,
// NOT the wire's delta sequence: batched publishers coalesce deltas on
// a background flusher, so seq values are timing-dependent, while the
// arrival count is a pure function of the sequence of applied deltas
// (deterministic whenever the batch cadence is).
func (s *Server) watchPublish(c *campaign, rank int, seq uint64, vectors uint64, points int) {
	c.sampleMu.Lock()
	if c.sampleIdx == nil {
		c.sampleIdx = map[int]int{}
	}
	interval := c.sampleIdx[rank]
	c.sampleIdx[rank] = interval + 1
	c.sampleMu.Unlock()
	p := obs.SeriesPoint{
		TNS: s.watchTNS(), Worker: rank, Interval: interval,
		Vectors: vectors, Points: points,
	}
	s.raiseAlerts(c, s.watch.ObserveSample(c.name, p))
}

// watchSolve is the OnSolve hook: every live solve a rank ships feeds
// the latency-regression and UNSAT-churn detectors.
func (s *Server) watchSolve(c *campaign, rank, graph, to int, outcome string, ns int64) {
	s.raiseAlerts(c, s.watch.ObserveSolve(c.name, rank, graph, to, outcome, ns, s.watchTNS()))
}

// raiseAlerts runs every side effect of a newly raised alert: fsynced
// journal record + trace span (AppendAlert, idempotent by ID), the
// per-campaign alert counter, and the health gauges.
func (s *Server) raiseAlerts(c *campaign, alerts []watch.Alert) {
	if len(alerts) == 0 {
		return
	}
	for _, a := range alerts {
		_ = c.cs.AppendAlert(a)
		if c.cAlerts != nil {
			c.cAlerts.Inc()
		}
	}
	s.updateHealthGauges(c)
}

// updateHealthGauges refreshes the campaign's exported health score
// and active-alert count.
func (s *Server) updateHealthGauges(c *campaign) {
	if c.gHealth == nil {
		return
	}
	h := s.watch.Health(c.name)
	c.gHealth.Set(int64(h.Score))
	c.gAlerts.Set(int64(len(h.Alerts)))
}

// seedWatchAlerts re-installs a resumed campaign's journaled alerts:
// the engine dedups their IDs (the same condition re-derived after the
// restart will not re-raise), and the fresh trace gets the spans the
// old trace lost when the file was recreated.
func (s *Server) seedWatchAlerts(c *campaign) {
	for _, a := range c.cs.ReplayedAlerts() {
		s.watch.Seed(a)
		c.cs.EmitAlertSpan(a)
		if c.cAlerts != nil {
			c.cAlerts.Inc()
		}
		// Advance the rank's sample counter past a journaled stall so a
		// post-resume episode cannot mint a colliding (and therefore
		// deduped-away) ID.
		if a.Rule == watch.RuleCoverageStall {
			c.sampleMu.Lock()
			if c.sampleIdx == nil {
				c.sampleIdx = map[int]int{}
			}
			if a.Interval+1 > c.sampleIdx[a.Lane] {
				c.sampleIdx[a.Lane] = a.Interval + 1
			}
			c.sampleMu.Unlock()
		}
	}
	s.updateHealthGauges(c)
}

// sweep is the watch plane's periodic observer, one goroutine per
// fleet: dead-rank detection from the lease tables plus the ops
// samples (queue occupancy, 429 rate, budget burn) the wire hooks
// cannot see. It also refreshes every campaign's health gauges.
func (s *Server) sweep() {
	defer s.sweepWG.Done()
	t := time.NewTicker(s.sweepInterval())
	defer t.Stop()
	for {
		select {
		case <-s.watchQuit:
			return
		case <-t.C:
			s.sweepOnce()
		}
	}
}

// sweepOnce runs one watch sweep over every campaign.
func (s *Server) sweepOnce() {
	tns := s.watchTNS()
	for _, c := range s.campaignsSorted() {
		for _, rank := range c.cs.DeadRanks() {
			s.raiseAlerts(c, s.watch.RankDead(c.name, rank, tns))
		}
		done := c.cancelled.Load()
		select {
		case <-c.cs.Done():
			done = true
		default:
		}
		s.raiseAlerts(c, s.watch.ObserveOps(c.name, watch.OpsSample{
			QueueDepth:  len(c.queue),
			QueueCap:    s.quota.QueueDepth,
			Rejected429: c.c429.Value(),
			SolverNS:    c.cs.SolverNS(),
			BudgetNS:    s.quota.SolverBudgetNS,
			Done:        done,
			TNS:         tns,
		}))
		s.updateHealthGauges(c)
	}
}

// stopWatch halts the sweep and waits for its last pass. Shutdown
// calls it before the HTTP drain so that no sweep-raised alert can
// reach a journal or trace after Shutdown starts closing them; the
// wire hooks stop with the drain, since they run inside requests.
// Idempotent.
func (s *Server) stopWatch() {
	s.watchOnce.Do(func() {
		close(s.watchQuit)
		s.sweepWG.Wait()
	})
}

// ---- HTTP surface ----

// handleWatchSnapshot serves GET /v1/watch/snapshot: the full health
// snapshot, series included, that fuzztop polls.
func (s *Server) handleWatchSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.watch == nil {
		writeErr(w, http.StatusNotFound, "watch plane disabled (start the fleet with watch enabled)")
		return
	}
	writeJSON(w, s.watch.SnapshotAll())
}
