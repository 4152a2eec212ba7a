package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/dist"
	"repro/internal/props"
)

// workload is one input set of the benchmark. Every campaign it runs
// uses the CLI's engine settings: snapshots on, fuzzing on after full
// coverage, compiled simulation backend.
type workload struct {
	Name string `json:"name"`
	// Designs run in sequence in one child process; names resolve
	// through the same table as the CLI and the fleet wire spec.
	Designs   []string `json:"designs"`
	Interval  int      `json:"interval"`
	Threshold int      `json:"threshold"`
	// Vectors is the budget per design, or per rank for a fleet.
	Vectors uint64 `json:"vectors"`
	// Ranks > 0 runs the campaign on an in-process fleet coordinator
	// with that many dist.RunWorker ranks.
	Ranks int `json:"ranks,omitempty"`
	// RepSeconds is the nominal wall time of one rep on a 2-core host.
	// It turns the -seconds budget into a rep count, so the inputs of a
	// run depend only on -seed and -seconds, never on machine speed.
	RepSeconds float64 `json:"rep_seconds"`
}

// workloads is the benchmark. The names are cited by later changes;
// see README.md for why each exists and which layers it stresses.
var workloads = []workload{
	{Name: "soc_default", Designs: []string{"opentitan_mini"}, Interval: 300, Threshold: 3, Vectors: 40000, RepSeconds: 2.6},
	{Name: "soc_guided", Designs: []string{"opentitan_mini"}, Interval: 100, Threshold: 2, Vectors: 40000, RepSeconds: 3.1},
	{Name: "ip_sweep", Designs: ipSweepDesigns(), Interval: 100, Threshold: 2, Vectors: 20000, RepSeconds: 2.6},
	{Name: "fleet_2rank", Designs: []string{"opentitan_mini"}, Interval: 100, Threshold: 2, Vectors: 20000, Ranks: 2, RepSeconds: 2.2},
}

// ipSweepDesigns lists the small designs: the two bug-free examples,
// the ten buggy SoC IPs standalone, and the three buggy cores.
func ipSweepDesigns() []string {
	out := []string{"alu", "bus_arb"}
	for _, ip := range designs.AllIPs() {
		out = append(out, ip.Name)
	}
	return append(out, "cva6_mini", "rocket_mini", "mor1kx_mini")
}

func findWorkload(table []workload, name string) (workload, error) {
	for _, w := range table {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// repCount turns a measuring budget into the number of sample reps,
// leaving one rep's time for the check job.
func (w workload) repCount(seconds int) int {
	return max(1, int(float64(seconds)/w.RepSeconds+0.5)-1)
}

// campaignSeed derives rep k's campaign seed from the benchmark seed
// (splitmix64), so each rep fuzzes a different trajectory and the
// values average over seeds instead of repeating one.
func campaignSeed(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	s := int64(z >> 1)
	if s == 0 {
		s = 1
	}
	return s
}

// resolve returns a design's benchmark and its planted-bug properties.
func resolve(name string) (*designs.Benchmark, []*props.Property, error) {
	return dist.ResolveSpec(dist.CampaignSpec{Bench: name})
}

// engineConfig is the per-engine configuration of one campaign.
func (w workload) engineConfig(seed int64) core.Config {
	return core.Config{
		Interval:              w.Interval,
		Threshold:             w.Threshold,
		MaxVectors:            w.Vectors,
		Seed:                  seed,
		UseSnapshots:          true,
		ContinueAfterCoverage: true,
		SimBackend:            "compiled",
	}
}

// spec is the fleet campaign spec matching engineConfig.
func (w workload) spec(seed int64) dist.CampaignSpec {
	return dist.CampaignSpec{
		Bench:                 w.Designs[0],
		Interval:              w.Interval,
		Threshold:             w.Threshold,
		MaxVectors:            w.Vectors,
		Seed:                  seed,
		Workers:               w.Ranks,
		UseSnapshots:          true,
		ContinueAfterCoverage: true,
		SimBackend:            "compiled",
	}
}
