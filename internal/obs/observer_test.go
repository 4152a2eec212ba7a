package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// fakeClock is a deterministic Options.Now: each call advances 1µs.
func fakeClock() func() int64 {
	var t int64
	return func() int64 {
		t += 1_000
		return t
	}
}

// TestNilObserverZeroAlloc pins the disabled fast path: every method on
// a nil *Observer must be a branch-and-return with no heap allocation,
// so threading telemetry through the engine is free when it is off.
func TestNilObserverZeroAlloc(t *testing.T) {
	var o *Observer
	st := SolveStats{Outcome: "sat", Conflicts: 1, BlastNS: 2, SolveNS: 3}
	allocs := testing.AllocsPerRun(100, func() {
		o.CampaignStart(1, 2)
		o.IntervalStart(1, 2)
		o.IntervalEnd(1, 2, 3)
		o.Stagnation(1, 2)
		o.SolverDispatch(0, 1, 1, 2, st, CacheRef{})
		o.PlanApplied(0, 1, 2, 3, 1, CacheRef{})
		o.GuidanceEnd(1, 2)
		_ = o.Lane()
		_ = o.RootSpan()
		_ = o.Series()
		o.Rollback("snapshot", 1, 2, 3)
		o.CheckpointTaken(1, 2, 3)
		o.CovDropped(1, 2, 3)
		o.VCDRoundTrip(1, 2)
		o.PruneSkip(0, 1, 2, 3)
		o.BugFound("p", 1, 2)
		o.SeqItem()
		o.SeqSolve(1)
		o.Cycles(1)
		o.AddCurvePoint(1, 2)
		o.CampaignEnd(1, 2)
		_ = o.Now()
		_ = o.Curve()
		_ = o.Close()
	})
	if allocs != 0 {
		t.Errorf("nil observer allocated %.0f times per run, want 0", allocs)
	}
}

func TestObserverMetricsAndTrace(t *testing.T) {
	var buf bytes.Buffer
	o := New(Options{Tracer: NewJSONLTracer(&buf), Now: fakeClock()})

	o.CampaignStart(0, 0)
	o.IntervalStart(0, 0)
	o.IntervalEnd(100, 5, 1500)
	o.Stagnation(100, 5)
	o.SolverDispatch(2, 7, 100, 5, SolveStats{
		Outcome: "sat", Conflicts: 3, Decisions: 11, Propagations: 40,
		Clauses: 120, Vars: 30, BlastNS: 900, SolveNS: 600,
	}, CacheRef{})
	o.SolverDispatch(2, 8, 100, 5, SolveStats{Outcome: "unsat", SolveNS: 100}, CacheRef{})
	o.PlanApplied(2, 7, 120, 6, 1, CacheRef{})
	o.GuidanceEnd(120, 6)
	o.Rollback("snapshot", 400, 120, 6)
	o.Rollback("replay", 800, 120, 6)
	o.CheckpointTaken(256, 120, 6)
	o.CovDropped(0, 120, 6) // n <= 0 must be a no-op
	o.CovDropped(9, 120, 6)
	o.PruneSkip(1, 4, 120, 6)
	o.BugFound("no_leak", 130, 7)
	o.AddCurvePoint(130, 7)
	o.Cycles(999)
	o.CampaignEnd(130, 7)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	snap := o.Snapshot()
	m := snap.Metrics
	wantCounters := map[string]int64{
		"fuzz_intervals": 1, "solver_dispatches": 2, "solver_sat": 1, "solver_unsat": 1,
		"solver_conflicts": 3, "solver_decisions": 11, "solver_propagations": 40,
		"solver_clauses": 120, "solver_vars": 30,
		"plans_applied": 1, "rollbacks_snapshot": 1, "rollbacks_replay": 1,
		"checkpoints": 1, "checkpoint_bytes": 256, "cov_events_dropped": 9,
		"stagnation_events": 1, "prune_skips": 1, "bugs_found": 1,
	}
	for name, want := range wantCounters {
		if got := m.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if m.Gauges["vectors_applied"] != 130 || m.Gauges["coverage_points"] != 7 || m.Gauges["cycles"] != 999 {
		t.Errorf("gauges = %v", m.Gauges)
	}
	if h := m.Histograms["rollback_ns"]; h.Count != 2 || h.Sum != 1200 {
		t.Errorf("rollback_ns = %+v", h)
	}
	if h := m.Histograms["solver_cdcl_ns"]; h.Count != 2 || h.Mean != 350 {
		t.Errorf("solver_cdcl_ns = %+v", h)
	}
	if len(snap.Curve) != 1 || snap.Curve[0] != (CurvePoint{Vectors: 130, Points: 7}) {
		t.Errorf("curve = %v", snap.Curve)
	}
	if snap.Schema != SnapshotSchema {
		t.Errorf("schema = %q", snap.Schema)
	}

	sum, err := ValidateTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.FinalVectors != 130 || sum.FinalPoints != 7 || sum.Bugs != 1 {
		t.Errorf("trace summary = %+v", sum)
	}
	// CovDropped(0) emitted nothing; CovDropped(9) emitted one event.
	if sum.ByType[EvCovDropped] != 1 {
		t.Errorf("cov_events_dropped events = %d, want 1", sum.ByType[EvCovDropped])
	}
	// Injected clock: timestamps are exact multiples of 1µs past origin.
	if sum.WallNS%1_000 != 0 || sum.WallNS == 0 {
		t.Errorf("deterministic clock wall = %d", sum.WallNS)
	}
}

func TestObserverSharedRegistry(t *testing.T) {
	r := NewRegistry()
	o := New(Options{Registry: r})
	o.BugFound("p", 1, 1)
	if got := r.Counter("bugs_found").Value(); got != 1 {
		t.Errorf("shared registry bugs_found = %d, want 1", got)
	}
	if o.Registry() != r {
		t.Error("Registry() did not return the injected registry")
	}
}

func TestNilObserverSnapshot(t *testing.T) {
	var o *Observer
	snap := o.Snapshot()
	if snap.Schema != SnapshotSchema || snap.UptimeNS != 0 || snap.Curve != nil {
		t.Errorf("nil snapshot = %+v", snap)
	}
}

func TestServeStatus(t *testing.T) {
	o := New(Options{Now: fakeClock()})
	o.AddCurvePoint(500, 42)
	o.Cycles(500)

	srv, err := ServeStatus("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json; charset=utf-8" {
		t.Fatalf("status %d, content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var snap StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != SnapshotSchema {
		t.Errorf("schema = %q, want %q", snap.Schema, SnapshotSchema)
	}
	if snap.Metrics.Gauges["coverage_points"] != 42 || snap.Metrics.Gauges["cycles"] != 500 {
		t.Errorf("gauges over HTTP = %v", snap.Metrics.Gauges)
	}
	if len(snap.Curve) != 1 || snap.Curve[0].Vectors != 500 {
		t.Errorf("curve over HTTP = %v", snap.Curve)
	}

	// pprof index is wired on the same mux.
	pp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", pp.StatusCode)
	}

	// Unknown paths 404 rather than serving the root snapshot.
	nf, err := http.Get("http://" + srv.Addr() + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", nf.StatusCode)
	}
}

// TestWatchDisabledZeroAlloc pins the observer's cost without a
// tracer: a live (non-nil) observer must not allocate on the
// interval/solve hot path. The fleet's watch plane reads the
// coordinator's publish and solve hooks, so nothing else rides it.
func TestWatchDisabledZeroAlloc(t *testing.T) {
	o := New(Options{Now: fakeClock()})
	st := SolveStats{Outcome: "sat", Conflicts: 1, BlastNS: 2, SolveNS: 3}
	o.CampaignStart(0, 0)
	allocs := testing.AllocsPerRun(100, func() {
		o.IntervalStart(1, 2)
		o.SolverDispatch(0, 1, 1, 2, st, CacheRef{})
		o.IntervalEnd(1, 2, 3)
	})
	if allocs != 0 {
		t.Errorf("untraced hot path allocated %.0f times per run, want 0", allocs)
	}
}
