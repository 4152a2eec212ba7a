package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/designs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden report fixtures")

// goldenCampaigns are the campaigns whose reports are pinned across
// commits, all with their planted bugs: the tuned SoC (guidance solves
// and rolls back), the SoC at the CLI defaults, a replay-mode campaign
// (reset plus prefix replay on every rollback), and a core whose
// guidance mostly refutes targets and rolls back.
var goldenCampaigns = []struct {
	name string
	bm   *designs.Benchmark
	cfg  Config
}{
	{"opentitan_mini_i100_th2", designs.OpenTitanMini(nil), Config{Interval: 100, Threshold: 2,
		MaxVectors: 8000, Seed: 2, UseSnapshots: true, SimBackend: "compiled", ContinueAfterCoverage: true}},
	{"opentitan_mini_i300_th3", designs.OpenTitanMini(nil), Config{Interval: 300, Threshold: 3,
		MaxVectors: 8000, Seed: 2, UseSnapshots: true, SimBackend: "compiled", ContinueAfterCoverage: true}},
	{"bus_arb_replay", designs.BusArb(), Config{Interval: 40, Threshold: 2,
		MaxVectors: 4000, Seed: 11, UseSnapshots: false, SimBackend: "compiled", ContinueAfterCoverage: true}},
	{"cva6_mini_i100_th2", designs.CVA6Mini(true), Config{Interval: 100, Threshold: 2,
		MaxVectors: 8000, Seed: 7, UseSnapshots: true, SimBackend: "compiled", ContinueAfterCoverage: true}},
}

// TestEngineReportGolden compares each golden campaign's report, with
// wall-clock timings zeroed, byte for byte against the fixture in
// testdata/golden. Engine changes that claim to be trajectory-neutral
// must keep these green; rewrite them (go test -run ReportGolden
// -update) only when a change is meant to move trajectories.
func TestEngineReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns are not short")
	}
	for _, tc := range goldenCampaigns {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.bm.Elaborate()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(d, tc.bm.Properties, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			zeroTimings(rep)
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report differs from %s (summary now %s)", path, rep)
			}
		})
	}
}
