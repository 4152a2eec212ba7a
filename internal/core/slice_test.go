package core

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestEngineSlicingAccounts drives the engine with slicing on (the
// default) and checks the report carries the slicing counters: on
// bus_arb the multi-cluster context guarantees nonzero savings.
func TestEngineSlicingAccounts(t *testing.T) {
	eng, err := New(benchmarkDesign(t, "bus_arb"), nil, Config{
		Interval: 40, Threshold: 2, MaxVectors: 4000, Seed: 11, UseSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SymbolicInvocations > 0 && rep.SlicedVars == 0 {
		t.Errorf("symbolic dispatches ran but no variables were sliced: %s", rep)
	}
}

// TestEngineSlicingDisabledIdentical is the ablation gate: with
// DisableSlicing the engine must take the exact pre-slicing path, and
// the report must serialize without any slicing fields at all — byte
// identical to a build that never had them.
func TestEngineSlicingDisabledIdentical(t *testing.T) {
	run := func() *Report {
		eng, err := New(benchmarkDesign(t, "bus_arb"), nil, Config{
			Interval: 40, Threshold: 2, MaxVectors: 4000, Seed: 11,
			UseSnapshots: true, DisableSlicing: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if rep.SlicedVars != 0 || rep.InfeasibleTargets != 0 {
		t.Fatalf("ablation run must not slice: %s", rep)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"SlicedVars", "InfeasibleTargets"} {
		if strings.Contains(string(raw), field) {
			t.Errorf("ablation report JSON must omit %s entirely", field)
		}
	}
	// Same-seed determinism holds under the ablation too.
	again := run()
	if rep.String() != again.String() || rep.FinalPoints != again.FinalPoints {
		t.Errorf("ablation run not reproducible:\n%s\nvs\n%s", rep, again)
	}
}

// TestEngineSlicingPreservesTrajectory checks the load-bearing
// equivalence: slicing only shrinks solver queries, so the sliced and
// unsliced campaigns — same seed, same design — must walk identical
// trajectories and produce identical coverage and bug sets. The SoC
// case runs the tuned campaign (I=100, Th=2) on the compiled backend,
// which keeps it fast and walks the same trajectory as the interpreter.
func TestEngineSlicingPreservesTrajectory(t *testing.T) {
	cases := []struct {
		bench string
		cfg   Config
	}{
		{"bus_arb", Config{Interval: 40, Threshold: 2, MaxVectors: 4000, Seed: 11, UseSnapshots: true}},
		{"opentitan_mini", Config{Interval: 100, Threshold: 2, MaxVectors: 7000, Seed: 1,
			UseSnapshots: true, SimBackend: "compiled"}},
	}
	for _, tc := range cases {
		t.Run(tc.bench, func(t *testing.T) {
			run := func(disable bool) *Report {
				c := tc.cfg
				c.DisableSlicing = disable
				eng, err := New(benchmarkDesign(t, tc.bench), nil, c)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			sliced, full := run(false), run(true)
			if sliced.SlicedVars == 0 {
				t.Fatalf("no solver variables were sliced, so the case checks nothing: %s", sliced)
			}
			if sliced.Vectors != full.Vectors || sliced.Cycles != full.Cycles {
				t.Errorf("trajectory diverged: sliced %d vec / %d cyc, unsliced %d vec / %d cyc",
					sliced.Vectors, sliced.Cycles, full.Vectors, full.Cycles)
			}
			if sliced.FinalPoints != full.FinalPoints ||
				sliced.EdgesCovered != full.EdgesCovered ||
				sliced.NodesCovered != full.NodesCovered {
				t.Errorf("coverage diverged: sliced %s vs unsliced %s", sliced, full)
			}
			if len(sliced.Bugs) != len(full.Bugs) {
				t.Errorf("bug sets diverged: %d vs %d", len(sliced.Bugs), len(full.Bugs))
			}
			if sliced.SolvedPlans != full.SolvedPlans {
				t.Errorf("solved plans diverged: %d vs %d", sliced.SolvedPlans, full.SolvedPlans)
			}
		})
	}
}
