package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/designs"
)

// benchEngine runs a full fuzzing campaign over a builtin benchmark and
// reports solver traffic as custom metrics, so
//
//	go test -bench Pruning -benchtime 3x ./internal/core
//
// compares solver dispatches with and without static reachability
// pruning on the same design and seed.
func benchEngine(b *testing.B, design string, disable bool) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchmarkDesign(b, design)
		b.StartTimer()
		eng, err := New(d, nil, Config{
			Interval: 50, Threshold: 2, MaxVectors: 4000, Seed: 7,
			UseSnapshots: true, DisablePruning: disable,
			ContinueAfterCoverage: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.SymbolicInvocations), "solves/op")
		b.ReportMetric(float64(rep.PrunedTargets), "pruned-nodes/op")
		b.ReportMetric(float64(rep.PrunedSolves), "pruned-solves/op")
	}
}

func BenchmarkEngineSoCPruned(b *testing.B)   { benchEngine(b, "opentitan_mini", false) }
func BenchmarkEngineSoCUnpruned(b *testing.B) { benchEngine(b, "opentitan_mini", true) }
func BenchmarkEngineArbPruned(b *testing.B)   { benchEngine(b, "bus_arb", false) }
func BenchmarkEngineArbUnpruned(b *testing.B) { benchEngine(b, "bus_arb", true) }

// BenchmarkEngineSoCGuided runs the tuned SoC campaign (opentitan_mini
// with its planted bugs, I=100/Th=2, compiled backend, snapshots), the
// configuration where guidance does real work, and reports campaign
// throughput and heap allocation per vector:
//
//	go test -run '^$' -bench EngineSoCGuided -benchtime 3x ./internal/core
func BenchmarkEngineSoCGuided(b *testing.B) {
	bm := designs.OpenTitanMini(nil)
	var vectors, allocated uint64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := bm.Elaborate()
		if err != nil {
			b.Fatal(err)
		}
		eng, err := New(d, bm.Properties, Config{
			Interval: 100, Threshold: 2, MaxVectors: 20_000, Seed: int64(i + 1),
			UseSnapshots: true, SimBackend: "compiled", ContinueAfterCoverage: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		start := time.Now()
		rep, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		runtime.ReadMemStats(&after)
		vectors += rep.Vectors
		allocated += after.TotalAlloc - before.TotalAlloc
	}
	b.ReportMetric(float64(vectors)/elapsed.Seconds(), "vectors/s")
	b.ReportMetric(float64(allocated)/float64(vectors), "B/vector")
}
