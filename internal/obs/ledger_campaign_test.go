package obs_test

// Engine-level tests of the trace-derived cost ledger. They live in an
// external test package because internal/core imports internal/obs.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/obs"
	"repro/internal/par"
)

var update = flag.Bool("update", false, "rewrite the cost-ledger goldens under testdata/ledger")

// ledgerRuns are the campaigns whose canonical ledgers are pinned as
// goldens: scmi_mailbox on one engine and on two workers, and bus_arb.
var ledgerRuns = []struct {
	name, bench string
	workers     int
}{
	{"scmi_mailbox_w1", "scmi_mailbox", 1},
	{"scmi_mailbox_w2", "scmi_mailbox", 2},
	{"bus_arb", "bus_arb", 1},
}

// ledgerConfig is the profiled campaign of these tests: seed 7, 2000
// vectors at I=50/Th=2, so guidance fires and plans land.
func ledgerConfig() core.Config {
	return core.Config{
		Interval:              50,
		Threshold:             2,
		MaxVectors:            2000,
		Seed:                  7,
		UseSnapshots:          true,
		ContinueAfterCoverage: true,
		SimProfile:            true,
	}
}

// runTraced runs one campaign — a single engine, or par's orchestrator
// for workers > 1 — and returns its report and parsed trace.
func runTraced(t *testing.T, bench string, workers int, cc core.Config) (*core.Report, []obs.Event) {
	t.Helper()
	b, ok := designs.FindBenchmark(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	var buf bytes.Buffer
	cc.Obs = obs.New(obs.Options{Tracer: obs.NewJSONLTracer(&buf)})
	var rep *core.Report
	if workers > 1 {
		prep, err := par.Run(b.Elaborate, b.Properties, par.Config{Config: cc, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rep = prep.Merged
	} else {
		d, err := b.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.New(d, b.Properties, cc)
		if err != nil {
			t.Fatal(err)
		}
		if rep, err = eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cc.Obs.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return rep, events
}

func canonicalLedger(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	l, err := obs.BuildCostLedger(events)
	if err != nil {
		t.Fatal(err)
	}
	out, err := l.Canonical().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCostLedgerGolden pins each run's canonical trace-derived ledger
// byte for byte. The goldens were recorded where the ledger was still
// also kept by a separate in-engine profiler, and equalled that
// profiler's canonical dump of the same run (workers, every rank
// ledger, totals).
func TestCostLedgerGolden(t *testing.T) {
	for _, r := range ledgerRuns {
		t.Run(r.name, func(t *testing.T) {
			_, events := runTraced(t, r.bench, r.workers, ledgerConfig())
			got := canonicalLedger(t, events)
			path := filepath.Join("testdata", "ledger", r.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if !bytes.Equal(got, golden) {
				t.Errorf("canonical ledger drifted from %s:\n%s", path, got)
			}
		})
	}
}

// TestLedgerDeterminism runs the same campaign twice: the canonical
// ledgers must be byte-identical, and the ledger must actually have
// attributed work (sim evals, solver dispatches, unlocked coverage).
func TestLedgerDeterminism(t *testing.T) {
	_, e1 := runTraced(t, "scmi_mailbox", 1, ledgerConfig())
	_, e2 := runTraced(t, "scmi_mailbox", 1, ledgerConfig())
	c1, c2 := canonicalLedger(t, e1), canonicalLedger(t, e2)
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonical ledger differs across identical campaigns:\n%s\nvs\n%s", c1, c2)
	}

	l, err := obs.BuildCostLedger(e1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Totals.Evals == 0 {
		t.Error("no simulator evals attributed")
	}
	if l.Totals.Dispatches == 0 {
		t.Error("no solver dispatches attributed")
	}
	if l.Totals.Unlocked == 0 {
		t.Error("no unlocked coverage attributed to any solve")
	}
	if len(l.Ranks) != 1 || len(l.Ranks[0].Sim) == 0 {
		t.Fatalf("want one rank with a sim ledger, got %+v", l.Ranks)
	}
	// Sim entries carry the levelization: sequential processes level
	// -1, combinational processes a settle depth >= 0.
	seq, comb := 0, 0
	for _, s := range l.Ranks[0].Sim {
		switch {
		case s.Kind == "seq" && s.Level == -1:
			seq++
		case s.Kind == "comb" && s.Level >= 0:
			comb++
		default:
			t.Errorf("sim entry with inconsistent kind/level: %+v", s)
		}
	}
	if seq == 0 || comb == 0 {
		t.Errorf("want both process kinds in the sim ledger, got seq=%d comb=%d", seq, comb)
	}
	// The curve is cumulative in every component.
	curve := l.Ranks[0].Curve
	if int64(len(curve)) != l.Totals.Dispatches {
		t.Errorf("curve has %d points, want one per dispatch (%d)", len(curve), l.Totals.Dispatches)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Clauses < curve[i-1].Clauses || curve[i].Unlocked < curve[i-1].Unlocked {
			t.Fatalf("curve not cumulative at %d: %+v -> %+v", i, curve[i-1], curve[i])
		}
	}
}

// TestParallelLedgerDeterminism runs a 2-worker campaign twice: the
// canonical ledger must be byte-identical across runs even though
// goroutine interleaving (and so the cache hit/miss split) differs.
func TestParallelLedgerDeterminism(t *testing.T) {
	_, e1 := runTraced(t, "scmi_mailbox", 2, ledgerConfig())
	_, e2 := runTraced(t, "scmi_mailbox", 2, ledgerConfig())
	c1, c2 := canonicalLedger(t, e1), canonicalLedger(t, e2)
	if !bytes.Equal(c1, c2) {
		t.Fatalf("2-worker canonical ledger not deterministic:\n%s\nvs\n%s", c1, c2)
	}
	l, err := obs.BuildCostLedger(e1)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Ranks) != 2 || l.Ranks[0].Rank != 0 || l.Ranks[1].Rank != 1 {
		t.Fatalf("want ranks [0 1], got %+v", l.Ranks)
	}
}

// normalizeReport strips the fields that legitimately vary across runs
// of the same seed: wall clock and the cache hit/miss split.
func normalizeReport(t *testing.T, r *core.Report) []byte {
	t.Helper()
	c := *r
	c.Timings.TotalNS = 0
	c.Timings.FuzzNS = 0
	c.Timings.SymbolicNS = 0
	c.Timings.RollbackNS = 0
	c.Timings.VCDNS = 0
	c.Timings.Solve.BlastNS = 0
	c.Timings.Solve.CDCLNS = 0
	c.SolveCacheHits += c.SolveCacheMisses
	c.SolveCacheMisses = 0
	out, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProfilingIsTrajectoryNeutral pins that the simulator profile only
// records: a profiled campaign's report equals the unprofiled one,
// field for field, modulo wall clock — on one engine and on two
// workers.
func TestProfilingIsTrajectoryNeutral(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cc := ledgerConfig()
		profiled, _ := runTraced(t, "scmi_mailbox", workers, cc)
		cc.SimProfile = false
		plain, events := runTraced(t, "scmi_mailbox", workers, cc)
		if p, n := normalizeReport(t, profiled), normalizeReport(t, plain); !bytes.Equal(p, n) {
			t.Fatalf("%d worker(s): profiling changed the campaign report:\nprofiled: %s\nplain:    %s", workers, p, n)
		}
		l, err := obs.BuildCostLedger(events)
		if err != nil {
			t.Fatal(err)
		}
		if l.Totals.Evals != 0 {
			t.Errorf("%d worker(s): unprofiled trace carries %d sim evals", workers, l.Totals.Evals)
		}
	}
}

// TestSimProfileBackendIndependent requires the interpreter and the
// compiled backend to attribute the same evals to the same processes:
// their canonical ledgers, simulator entries included, are
// byte-identical.
func TestSimProfileBackendIndependent(t *testing.T) {
	soc := ledgerConfig()
	soc.Seed, soc.MaxVectors, soc.Interval = 3, 3000, 100
	for _, c := range []struct {
		bench string
		cc    core.Config
	}{{"scmi_mailbox", ledgerConfig()}, {"opentitan_mini", soc}} {
		t.Run(c.bench, func(t *testing.T) {
			var canon [2][]byte
			for i, backend := range []string{"interp", "compiled"} {
				cc := c.cc
				cc.SimBackend = backend
				_, events := runTraced(t, c.bench, 1, cc)
				canon[i] = canonicalLedger(t, events)
			}
			if !bytes.Equal(canon[0], canon[1]) {
				t.Fatalf("canonical ledger differs across backends:\ninterp:   %s\ncompiled: %s", canon[0], canon[1])
			}
			if !bytes.Contains(canon[0], []byte(`"proc"`)) {
				t.Fatal("no simulator entries in the ledger")
			}
		})
	}
}
