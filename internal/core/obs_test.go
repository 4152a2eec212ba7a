package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/props"
)

// obsClock is a deterministic obs.Options.Now: each call advances 1µs,
// so event timestamps depend only on the event sequence, which is
// seed-deterministic.
func obsClock() func() int64 {
	var t int64
	return func() int64 {
		t += 1_000
		return t
	}
}

// runTraced runs the deep campaign with a JSONL tracer attached and
// returns the report plus the raw trace bytes.
func runTraced(t *testing.T, seed int64) (*Report, []byte, obs.StatusSnapshot) {
	t.Helper()
	var buf bytes.Buffer
	o := obs.New(obs.Options{Tracer: obs.NewJSONLTracer(&buf), Now: obsClock()})
	eng, err := New(deepDesign(t), []*props.Property{leakProp()}, Config{
		Interval:     50,
		Threshold:    2,
		MaxVectors:   20_000,
		Seed:         seed,
		UseSnapshots: true,
		Obs:          o,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	return rep, buf.Bytes(), o.Snapshot()
}

func TestEngineTraceReconcilesWithReport(t *testing.T) {
	rep, trace, snap := runTraced(t, 1)

	sum, err := obs.ValidateTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("schema-invalid trace: %v", err)
	}
	// The campaign_end event must agree with the report — the acceptance
	// contract for offline trace analysis.
	if sum.FinalPoints != rep.FinalPoints {
		t.Errorf("trace final coverage_points = %d, report FinalPoints = %d", sum.FinalPoints, rep.FinalPoints)
	}
	if sum.FinalVectors != rep.Vectors {
		t.Errorf("trace final vectors = %d, report Vectors = %d", sum.FinalVectors, rep.Vectors)
	}
	if sum.Bugs != len(rep.Bugs) {
		t.Errorf("trace bugs = %d, report bugs = %d", sum.Bugs, len(rep.Bugs))
	}
	// The deep chain forces every phase of Algorithm 1, so the trace
	// must contain the full vocabulary for the guided path.
	for _, typ := range []string{obs.EvCheckpoint, obs.EvBugFound, obs.EvSpan} {
		if sum.ByType[typ] == 0 {
			t.Errorf("no %q events in trace (by_type = %v)", typ, sum.ByType)
		}
	}
	events, err := obs.ReadEvents(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ValidateSpans(events)
	if err != nil {
		t.Fatalf("span-invalid trace: %v", err)
	}
	// One record per fact: the flat events and child spans that repeated
	// a span's payload are gone, and each Algorithm-1 step is exactly
	// one span, reconciling with the report and the metric registry.
	for _, retired := range []string{"interval_start", "interval_end", "stagnation_detected", "solver_dispatch", "plan_applied"} {
		if n := sum.ByType[retired]; n != 0 {
			t.Errorf("trace carries %d retired %q events", n, retired)
		}
	}
	for _, retired := range []string{"stimulus_batch", "coverage_delta"} {
		if n := spans.ByKind[retired]; n != 0 {
			t.Errorf("trace carries %d retired %q spans", n, retired)
		}
	}
	m := snap.Metrics
	for kind, want := range map[string]int64{
		obs.SpanSolve:     int64(rep.Timings.Solve.Dispatches),
		obs.SpanInterval:  m.Counters["fuzz_intervals"],
		obs.SpanPlanApply: m.Counters["plans_applied"],
		obs.SpanStagnate:  m.Counters["stagnation_events"],
	} {
		if got := int64(spans.ByKind[kind]); got != want || got == 0 {
			t.Errorf("%s spans = %d, want %d (nonzero)", kind, got, want)
		}
	}
	// Each solved plan drives one vector outside the interval loop, so
	// the interval spans' vectors account for the rest.
	var fuzzed int64
	for _, ev := range events {
		if ev.Type == obs.EvSpan && ev.Kind == obs.SpanInterval {
			fuzzed += ev.Count
		}
	}
	if want := int64(rep.Vectors) - int64(rep.SolvedPlans); fuzzed != want {
		t.Errorf("interval spans applied %d vectors, want Vectors %d - SolvedPlans %d = %d",
			fuzzed, rep.Vectors, rep.SolvedPlans, want)
	}

	// Metrics snapshot reconciles with both trace and report.
	if m.Gauges["coverage_points"] != int64(rep.FinalPoints) {
		t.Errorf("coverage_points gauge = %d, want %d", m.Gauges["coverage_points"], rep.FinalPoints)
	}
	if m.Gauges["vectors_applied"] != int64(rep.Vectors) {
		t.Errorf("vectors_applied gauge = %d, want %d", m.Gauges["vectors_applied"], rep.Vectors)
	}
	if m.Counters["bugs_found"] != int64(len(rep.Bugs)) {
		t.Errorf("bugs_found counter = %d, want %d", m.Counters["bugs_found"], len(rep.Bugs))
	}
	if m.Counters["solver_sat"]+m.Counters["solver_unsat"] != m.Counters["solver_dispatches"] {
		t.Errorf("sat %d + unsat %d != dispatches %d",
			m.Counters["solver_sat"], m.Counters["solver_unsat"], m.Counters["solver_dispatches"])
	}
	if m.Counters["solver_conflicts"] != rep.Timings.Solve.Conflicts {
		t.Errorf("solver_conflicts = %d, Timings %d", m.Counters["solver_conflicts"], rep.Timings.Solve.Conflicts)
	}
	if len(snap.Curve) == 0 || snap.Curve[len(snap.Curve)-1].Points != rep.FinalPoints {
		t.Errorf("live curve = %v, want final points %d", snap.Curve, rep.FinalPoints)
	}

	// Coarse phase timings are collected even without special flags.
	ti := rep.Timings
	if ti.TotalNS <= 0 || ti.FuzzNS <= 0 || ti.SymbolicNS <= 0 {
		t.Errorf("phase timings not collected: %+v", ti)
	}
	if ti.FuzzNS+ti.SymbolicNS > ti.TotalNS {
		t.Errorf("phase times exceed total: fuzz %d + symbolic %d > total %d",
			ti.FuzzNS, ti.SymbolicNS, ti.TotalNS)
	}
	if ti.CheckpointBytes <= 0 {
		t.Errorf("snapshot mode recorded no checkpoint bytes: %+v", ti)
	}
}

// normalizeTrace zeroes the real-wall-clock fields (dur_ns, blast_ns,
// cdcl_ns) that legitimately vary between runs; with the injected
// deterministic clock everything else — event sequence, timestamps,
// vectors, coverage, CFG locations, SAT search counters — must be
// byte-identical for a fixed seed.
func normalizeTrace(t *testing.T, raw []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		ev.DurNS, ev.BlastNS, ev.SolveNS = 0, 0, 0
		b, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

func TestEngineTraceGoldenDeterministic(t *testing.T) {
	repA, traceA, _ := runTraced(t, 1)
	repB, traceB, _ := runTraced(t, 1)
	if repA.Vectors != repB.Vectors || repA.FinalPoints != repB.FinalPoints {
		t.Fatalf("runs diverged: %d/%d vs %d/%d vectors/points",
			repA.Vectors, repA.FinalPoints, repB.Vectors, repB.FinalPoints)
	}
	a, b := normalizeTrace(t, traceA), normalizeTrace(t, traceB)
	if !bytes.Equal(a, b) {
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := 0; i < len(la) && i < len(lb); i++ {
			if !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("traces diverge at line %d:\n  run A: %s\n  run B: %s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("trace lengths diverge: %d vs %d lines", len(la), len(lb))
	}
}

// TestEngineObsDoesNotPerturbCampaign pins that attaching telemetry
// cannot change campaign behaviour: the same seed with and without an
// observer must produce identical coverage and bug results.
func TestEngineObsDoesNotPerturbCampaign(t *testing.T) {
	plain, err := New(deepDesign(t), []*props.Property{leakProp()}, Config{
		Interval: 50, Threshold: 2, MaxVectors: 20_000, Seed: 1, UseSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	repPlain, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	repObs, _, _ := runTraced(t, 1)
	if repPlain.Vectors != repObs.Vectors || repPlain.FinalPoints != repObs.FinalPoints ||
		len(repPlain.Bugs) != len(repObs.Bugs) {
		t.Errorf("observer perturbed the campaign: %d/%d/%d vs %d/%d/%d (vectors/points/bugs)",
			repPlain.Vectors, repPlain.FinalPoints, len(repPlain.Bugs),
			repObs.Vectors, repObs.FinalPoints, len(repObs.Bugs))
	}
}
