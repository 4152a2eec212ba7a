package core

import (
	"encoding/json"
	"testing"

	"repro/internal/designs"
	"repro/internal/props"
)

// runCampaignJSON runs one campaign and returns its Report as JSON.
func runCampaignJSON(t *testing.T, b *designs.Benchmark, backend string, seed int64) []byte {
	t.Helper()
	d, err := b.Elaborate()
	if err != nil {
		t.Fatalf("elaborate %s: %v", b.Name, err)
	}
	eng, err := New(d, b.Properties, Config{
		Interval: 40, Threshold: 2, MaxVectors: 1500, Seed: seed,
		UseSnapshots: true, SimBackend: backend,
	})
	if err != nil {
		t.Fatalf("engine %s/%s: %v", b.Name, backend, err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatalf("run %s/%s: %v", b.Name, backend, err)
	}
	zeroTimings(rep)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// zeroTimings clears a Report's wall-clock attribution, the one part of
// a Report that is environment-dependent rather than
// trajectory-dependent, so comparisons are over the deterministic
// campaign content.
func zeroTimings(rep *Report) {
	rep.Timings.TotalNS = 0
	rep.Timings.FuzzNS = 0
	rep.Timings.SymbolicNS = 0
	rep.Timings.RollbackNS = 0
	rep.Timings.VCDNS = 0
	rep.Timings.Solve.BlastNS = 0
	rep.Timings.Solve.CDCLNS = 0
}

// TestCampaignTrajectoryBackendNeutral is the engine-level parity
// obligation: a campaign with the same seed must produce a
// byte-identical Report whether the DUV runs on the interpreter or the
// compiled backend — same coverage trajectory, same symbolic
// invocations, same bugs at the same vector counts. Every builtin
// design is checked.
func TestCampaignTrajectoryBackendNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("full-campaign sweep is not short")
	}
	for _, b := range designs.AllBenchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			interp := runCampaignJSON(t, b, "interp", 11)
			compiled := runCampaignJSON(t, b, "compiled", 11)
			if string(interp) != string(compiled) {
				t.Errorf("campaign report differs between backends\ninterp:   %s\ncompiled: %s", interp, compiled)
			}
		})
	}
}

// TestEngineRejectsUnknownBackend pins the error path of the knob.
func TestEngineRejectsUnknownBackend(t *testing.T) {
	d := deepDesign(t)
	_, err := New(d, []*props.Property{leakProp()}, Config{
		Interval: 40, Threshold: 2, MaxVectors: 100, Seed: 1, SimBackend: "verilator",
	})
	if err == nil {
		t.Fatal("expected an error for an unknown sim backend")
	}
}
