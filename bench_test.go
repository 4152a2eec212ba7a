// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), plus the ablations of the design choices DESIGN.md
// calls out and the §5.5.2 micro-benchmarks. Each benchmark reports its
// headline numbers through b.ReportMetric so `go test -bench` output
// doubles as the experiment log; cmd/benchtab prints the full tables.
//
// Budgets here are scaled for benchmark turnaround; EXPERIMENTS.md
// records the full-budget paper-vs-measured comparison.
package symbfuzz_test

import (
	"math/rand"
	"testing"

	symbfuzz "repro"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/uvm"
)

// benchEvalConfig is the scaled-down experiment configuration used by
// the table/figure benchmarks.
func benchEvalConfig() eval.Config {
	return eval.Config{
		BudgetIP:  20_000,
		BudgetSoC: 30_000,
		Runs:      2,
		Seed:      1,
		Interval:  100,
		Threshold: 2,
	}
}

// BenchmarkTable1BugDetection regenerates Table 1: SymbFuzz on every
// buggy IP, reporting bugs found and the mean vectors-to-detection.
func BenchmarkTable1BugDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTable1(benchEvalConfig())
		if err != nil {
			b.Fatal(err)
		}
		found, vectors := 0, uint64(0)
		for _, r := range rows {
			if r.Detected {
				found++
				vectors += r.Vectors
			}
		}
		b.ReportMetric(float64(found), "bugs-found")
		if found > 0 {
			b.ReportMetric(float64(vectors)/float64(found), "mean-vectors/bug")
		}
	}
}

// BenchmarkTable2DetectionMatrix regenerates Table 2: the detection
// matrix across SymbFuzz, RFuzz, DifuzzRTL and HWFP (single run per
// tool at bench budget; cmd/benchtab -exp table2 runs the full 4x).
func BenchmarkTable2DetectionMatrix(b *testing.B) {
	c := benchEvalConfig()
	c.Runs = 1
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTable2(c)
		if err != nil {
			b.Fatal(err)
		}
		counts := map[string]int{}
		for _, r := range rows {
			for tool, ok := range r.Detected {
				if ok {
					counts[tool]++
				}
			}
		}
		b.ReportMetric(float64(counts["symbfuzz"]), "symbfuzz-bugs")
		b.ReportMetric(float64(counts["rfuzz"]), "rfuzz-bugs")
		b.ReportMetric(float64(counts["difuzzrtl"]), "difuzzrtl-bugs")
		b.ReportMetric(float64(counts["hwfp"]), "hwfp-bugs")
	}
}

// BenchmarkTable3BenchmarkDetails regenerates Table 3: CFG sizes,
// dependency-equation counts, analysis latency and constraints for the
// four benchmarks.
func BenchmarkTable3BenchmarkDetails(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTable3(benchEvalConfig())
		if err != nil {
			b.Fatal(err)
		}
		soc := rows[0]
		b.ReportMetric(float64(soc.Nodes), "soc-cfg-nodes")
		b.ReportMetric(float64(soc.Edges), "soc-cfg-edges")
		b.ReportMetric(float64(soc.DepEqns), "soc-dep-eqns")
		b.ReportMetric(float64(soc.Constraints), "soc-constraints")
	}
}

// BenchmarkFigure4aCoverage regenerates Figure 4a: coverage versus
// input vectors for all five tools, reporting final points and the
// convergence speedup over UVM random testing (paper: 6.8x).
func BenchmarkFigure4aCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := eval.RunFigure4(benchEvalConfig())
		if err != nil {
			b.Fatal(err)
		}
		final := func(n string) float64 {
			c := fig.Series[n]
			return c.Points[len(c.Points)-1]
		}
		b.ReportMetric(final("symbfuzz"), "symbfuzz-points")
		b.ReportMetric(final("difuzzrtl"), "difuzzrtl-points")
		b.ReportMetric(final("hwfp"), "hwfp-points")
		b.ReportMetric(final("rfuzz"), "rfuzz-points")
		b.ReportMetric(final("uvm-random"), "random-points")
		b.ReportMetric(fig.SpeedupVsRandom, "speedup-vs-random")
		b.ReportMetric(fig.RandomSaturation*100, "random-saturation-%")
	}
}

// BenchmarkFigure4bVariance regenerates Figure 4b: per-tool coverage
// variance inside the mid-campaign window (SymbFuzz lowest).
func BenchmarkFigure4bVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := eval.RunFigure4(benchEvalConfig())
		if err != nil {
			b.Fatal(err)
		}
		mean := func(n string) float64 {
			vr := fig.Variance[n]
			if len(vr) == 0 {
				return 0
			}
			var sum float64
			for _, v := range vr {
				sum += v
			}
			return sum / float64(len(vr))
		}
		b.ReportMetric(mean("symbfuzz"), "symbfuzz-variance")
		b.ReportMetric(mean("uvm-random"), "random-variance")
	}
}

// BenchmarkSection54Cores regenerates §5.4: SymbFuzz detecting the
// cross-paper bugs V1–V3 on the three mini cores.
func BenchmarkSection54Cores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunSection54(benchEvalConfig())
		if err != nil {
			b.Fatal(err)
		}
		found := 0
		for _, r := range rows {
			for _, ok := range r.Found {
				if ok {
					found++
				}
			}
		}
		b.ReportMetric(float64(found), "core-bugs-found") // max 9
	}
}

// BenchmarkScalability regenerates §5.5.2's statistics: explored
// edge-state pairs, checkpoints and symbolic calls on the SoC.
func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := eval.RunScalability(benchEvalConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.EdgeStatePairs), "edge-state-pairs")
		b.ReportMetric(float64(s.CheckpointsTaken), "checkpoints")
		b.ReportMetric(float64(s.SymbolicCalls), "symbolic-calls")
	}
}

// ---- §5.2 resource profile (run with -benchmem) ----

// resourceRun drives one fuzzer over the buggy AES IP at a fixed budget
// so ns/op and B/op compare CPU and memory across tools (§5.2's
// resource table).
func resourceRun(b *testing.B, tool string) {
	b.Helper()
	bench := designs.IPBenchmark(designs.AES(), true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if tool == "symbfuzz" {
			_, err = symbfuzz.Fuzz(bench, symbfuzz.Config{
				Interval: 100, Threshold: 2, MaxVectors: 5000, Seed: 3,
				UseSnapshots: true, ContinueAfterCoverage: true,
			})
		} else {
			_, err = symbfuzz.RunBaseline(tool, bench, symbfuzz.BaselineConfig{
				MaxVectors: 5000, Seed: 3,
			})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResourceProfileSymbFuzz measures SymbFuzz's CPU/memory.
func BenchmarkResourceProfileSymbFuzz(b *testing.B) { resourceRun(b, "symbfuzz") }

// BenchmarkResourceProfileRFuzz measures RFuzz's CPU/memory.
func BenchmarkResourceProfileRFuzz(b *testing.B) { resourceRun(b, "rfuzz") }

// BenchmarkResourceProfileDifuzzRTL measures DifuzzRTL's CPU/memory.
func BenchmarkResourceProfileDifuzzRTL(b *testing.B) { resourceRun(b, "difuzzrtl") }

// BenchmarkResourceProfileHWFP measures HWFP's CPU/memory.
func BenchmarkResourceProfileHWFP(b *testing.B) { resourceRun(b, "hwfp") }

// ---- ablations (DESIGN.md) ----

// ablationRun fuzzes the buggy LC controller under a modified engine
// configuration and reports coverage reached within the budget.
func ablationRun(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	bench := designs.IPBenchmark(designs.LCCtrl(), true)
	for i := 0; i < b.N; i++ {
		cfg := core.Config{
			Interval: 100, Threshold: 2, MaxVectors: 15_000, Seed: 9,
			UseSnapshots: true, ContinueAfterCoverage: false,
		}
		mutate(&cfg)
		rep, err := symbfuzz.Fuzz(bench, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.EdgesCovered)/float64(max(1, rep.EdgesTotal))*100, "edge-coverage-%")
		b.ReportMetric(float64(rep.Vectors), "vectors-used")
		b.ReportMetric(float64(rep.Rollbacks), "rollbacks")
	}
}

// BenchmarkAblationBaseline is the reference engine configuration.
func BenchmarkAblationBaseline(b *testing.B) {
	ablationRun(b, func(*core.Config) {})
}

// BenchmarkAblationNoSymbolic disables the symbolic stage (§5.5.1(2)):
// the pure-fuzzing engine covers fewer edges in the same budget.
func BenchmarkAblationNoSymbolic(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.DisableSymbolic = true })
}

// BenchmarkAblationFullReset replaces snapshot rollback with
// reset-plus-replay (§4.5's slow path): replay cycles count against the
// budget, slowing convergence.
func BenchmarkAblationFullReset(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.UseSnapshots = false })
}

// BenchmarkAblationStagnationTh1/Th6 sweep Algorithm 1's Th: a low
// threshold invokes the solver eagerly, a high one lingers in random
// fuzzing.
func BenchmarkAblationStagnationTh1(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.Threshold = 1 })
}

// BenchmarkAblationStagnationTh6 is the lazy-guidance end of the sweep.
func BenchmarkAblationStagnationTh6(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.Threshold = 6 })
}

// BenchmarkAblationCheckpointFanout sweeps the checkpoint-marking
// threshold (§4.5's pilot study: higher threshold = fewer checkpoints
// but more re-exploration).
func BenchmarkAblationCheckpointFanout(b *testing.B) {
	for _, fanout := range []int{2, 3, 5} {
		fanout := fanout
		b.Run(benchName("fanout", fanout), func(b *testing.B) {
			bench := designs.IPBenchmark(designs.LCCtrl(), true)
			for i := 0; i < b.N; i++ {
				rep, err := symbfuzz.Fuzz(bench, core.Config{
					Interval: 100, Threshold: 2, MaxVectors: 15_000, Seed: 9,
					UseSnapshots: true,
					CFG:          symbfuzz.GraphOptions{CheckpointFanout: fanout},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.GraphStats.Checkpoints), "checkpoints")
				b.ReportMetric(float64(rep.Vectors), "vectors-used")
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + string(rune('0'+v))
}

// ---- §5.5.2 micro-benchmarks ----

// BenchmarkCheckpointReplay measures snapshot capture/restore on the
// SoC: the paper reports checkpoint replays finishing in microseconds.
func BenchmarkCheckpointReplay(b *testing.B) {
	d, err := symbfuzz.OpenTitanMini(nil).Elaborate()
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		b.Fatal(err)
	}
	info := sim.DetectClockReset(d)
	if err := s.ApplyReset(info, 2); err != nil {
		b.Fatal(err)
	}
	snap := s.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Restore(snap)
	}
}

// BenchmarkSimulatorTick measures raw simulation throughput on the SoC,
// one sub-benchmark per simulation backend, so the kernels' ns/op read
// side by side. Like a campaign, each tick first drives a fresh
// prebuilt random vector into every input but the clock and reset, so
// the input cones re-evaluate.
func BenchmarkSimulatorTick(b *testing.B) {
	d, err := symbfuzz.OpenTitanMini(nil).Elaborate()
	if err != nil {
		b.Fatal(err)
	}
	info := sim.DetectClockReset(d)
	var inputs []int
	for _, s := range d.InputSignals() {
		if s.Index != info.Clock && s.Index != info.Reset {
			inputs = append(inputs, s.Index)
		}
	}
	rng := rand.New(rand.NewSource(1))
	vecs := make([][]logic.BV, 256)
	for i := range vecs {
		for _, sig := range inputs {
			vecs[i] = append(vecs[i], logic.Rand(d.Signals[sig].Width, rng.Uint64))
		}
	}
	for _, backend := range []string{"interp", "compiled"} {
		b.Run(backend, func(b *testing.B) {
			s, err := uvm.NewBackend(d, backend)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.ApplyReset(info, 2); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, sig := range inputs {
					s.Set(sig, vecs[i%len(vecs)][j])
				}
				if err := s.Tick(info.Clock); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDependencySolve measures one guided-step SMT query on the
// LC controller (the §4.8 inner loop).
func BenchmarkDependencySolve(b *testing.B) {
	bench := designs.IPBenchmark(designs.LCCtrl(), true)
	d, err := bench.Elaborate()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.New(d, nil, core.Config{
		Interval: 50, Threshold: 2, MaxVectors: 10, Seed: 1, UseSnapshots: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	part := eng.Graph()
	g := part.Graphs[0]
	if len(g.Nodes) < 2 || len(g.Nodes[0].Out) == 0 {
		b.Skip("graph too small")
	}
	root := g.Nodes[0]
	target := g.Nodes[g.Edges[root.Out[0]].To]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan := g.SolveStep(root.Vals, target.Vals, nil, 0); plan == nil {
			b.Fatal("unexpected unsat")
		}
	}
}

// BenchmarkElaborateSoC measures front-end throughput: parse plus
// elaborate the full SoC.
func BenchmarkElaborateSoC(b *testing.B) {
	bench := symbfuzz.OpenTitanMini(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Elaborate(); err != nil {
			b.Fatal(err)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
