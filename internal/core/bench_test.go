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

// BenchmarkEngineSoCGuided runs the tuned SoC campaign (I=100/Th=2),
// the configuration where guidance does real work:
//
//	go test -run '^$' -bench EngineSoCGuided -benchtime 3x ./internal/core
func BenchmarkEngineSoCGuided(b *testing.B) { benchSoC(b, 100, 2, 20_000) }

// BenchmarkEngineSoCDefault runs the campaign at the CLI defaults
// (I=300/Th=3, 40k vectors), where guidance rarely fires and per-cycle
// coverage sampling, simulation and property checks set the time:
//
//	go test -run '^$' -bench EngineSoCDefault -benchtime 3x ./internal/core
func BenchmarkEngineSoCDefault(b *testing.B) { benchSoC(b, 300, 3, 40_000) }

// BenchmarkEngineSoCSetup times what a SoC campaign pays before its
// first vector: Elaborate plus New on opentitan_mini with its planted
// bugs, at the CLI defaults, as the campaign benchmark's setup_s does:
//
//	go test -run '^$' -bench EngineSoCSetup -benchtime 80x ./internal/core
func BenchmarkEngineSoCSetup(b *testing.B) {
	bm := designs.OpenTitanMini(nil)
	c := Config{
		Interval: 300, Threshold: 3, MaxVectors: 40_000, Seed: 1,
		UseSnapshots: true, SimBackend: "compiled", ContinueAfterCoverage: true,
	}
	for i := 0; i < b.N; i++ {
		d, err := bm.Elaborate()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := New(d, bm.Properties, c); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSoC runs opentitan_mini with its planted bugs on the compiled
// backend with snapshots, and reports campaign throughput, heap
// allocation per vector, and retained-MB: the live-heap growth across
// Run, measured after a GC with the engine still live.
func benchSoC(b *testing.B, interval, threshold int, vectors uint64) {
	bm := designs.OpenTitanMini(nil)
	var ran, allocated uint64
	var retained int64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := bm.Elaborate()
		if err != nil {
			b.Fatal(err)
		}
		eng, err := New(d, bm.Properties, Config{
			Interval: interval, Threshold: threshold, MaxVectors: vectors, Seed: int64(i + 1),
			UseSnapshots: true, SimBackend: "compiled", ContinueAfterCoverage: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		var before, after, live runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		start := time.Now()
		rep, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		runtime.GC()
		runtime.ReadMemStats(&live)
		runtime.KeepAlive(eng)
		ran += rep.Vectors
		allocated += after.TotalAlloc - before.TotalAlloc
		retained += int64(live.HeapAlloc) - int64(before.HeapAlloc)
	}
	b.ReportMetric(float64(ran)/elapsed.Seconds(), "vectors/s")
	b.ReportMetric(float64(allocated)/float64(ran), "B/vector")
	b.ReportMetric(float64(retained)/float64(b.N)/(1<<20), "retained-MB")
}
