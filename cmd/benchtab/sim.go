package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/simc"
)

// The sim experiment measures raw simulation throughput: for every
// builtin design, the same pre-generated stimulus stream is driven
// through the event-driven interpreter and the compiled closure
// backend as two interleaved arms. Because both backends replicate the
// same scheduler the trajectories are identical by construction (the
// differential harness in internal/simc/diff proves that); this
// experiment only asks how fast each gets there, plus how often the
// compiled backend's word-packed two-state fast path is taken.

// simCycles is the number of vectors driven per design per run.
const simCycles = 2000

// SimBenchRow is one design's throughput comparison.
type SimBenchRow struct {
	Design  string `json:"design"`
	Signals int    `json:"signals"`
	Procs   int    `json:"procs"`
	Cycles  int    `json:"cycles"`

	InterpVectorsPerSec   float64 `json:"interp_vectors_per_sec"`
	CompiledVectorsPerSec float64 `json:"compiled_vectors_per_sec"`
	Speedup               float64 `json:"speedup"`

	// TwoStateHitRate is the fraction of compiled kernel evaluations
	// that stayed on the all-known word-packed fast path (per design,
	// over the whole run including reset).
	TwoStateHitRate float64 `json:"two_state_hit_rate"`
}

// SimBench is the BENCH_sim.json record.
type SimBench struct {
	recordHeader
	Cycles int           `json:"cycles"`
	Runs   int           `json:"runs"`
	Rows   []SimBenchRow `json:"rows"`

	// BestSpeedup summarizes the table: the largest compiled-over-
	// interpreter throughput ratio across designs.
	BestSpeedup float64 `json:"best_speedup"`
}

// simStim is a pre-generated stimulus stream: one vector per driven
// input per cycle, identical for both arms and excluded from the timed
// region so the measurement is simulator stepping, not rng cost.
type simStim struct {
	info   sim.ResetInfo
	inputs []*elab.Signal
	// vecs[c][i] drives inputs[i] at cycle c.
	vecs [][]logic.BV
}

func genStim(d *elab.Design, cycles int, seed int64) simStim {
	st := simStim{info: sim.DetectClockReset(d)}
	for _, in := range d.InputSignals() {
		if in.Index == st.info.Clock || in.Index == st.info.Reset {
			continue
		}
		st.inputs = append(st.inputs, in)
	}
	rng := rand.New(rand.NewSource(seed))
	st.vecs = make([][]logic.BV, cycles)
	for c := range st.vecs {
		row := make([]logic.BV, len(st.inputs))
		for i, in := range st.inputs {
			row[i] = logic.Rand(in.Width, rng.Uint64)
		}
		st.vecs[c] = row
	}
	return st
}

// driveStim runs the stimulus through a backend and returns the wall
// time of the stepping loop alone (construction and reset excluded).
func driveStim(s sim.DUV, st simStim) (int64, error) {
	if err := s.ApplyReset(st.info, 2); err != nil {
		return 0, err
	}
	start := time.Now()
	for _, row := range st.vecs {
		for i, in := range st.inputs {
			s.Set(in.Index, row[i])
		}
		if st.info.Clock >= 0 {
			if err := s.Tick(st.info.Clock); err != nil {
				return 0, err
			}
		} else {
			if err := s.Settle(); err != nil {
				return 0, err
			}
			s.AdvanceCycle()
		}
	}
	return time.Since(start).Nanoseconds(), nil
}

func runSim(seed int64, runs int, w io.Writer) (any, error) {
	if runs < 1 {
		runs = 3
	}
	rec := SimBench{
		recordHeader: header("symbfuzz-bench-sim/v1", seed,
			"identical pre-generated stimulus driven through the interpreter and the "+
				"compiled closure backend per design; vectors/sec from each arm's median stepping "+
				"wall time over interleaved runs; two_state_hit_rate is the fraction of compiled "+
				"kernel evaluations that stayed on the all-known word-packed fast path"),
		Cycles: simCycles,
		Runs:   runs,
	}

	fmt.Fprintf(w, "Simulation backend throughput (%d vectors, median of %d runs per arm)\n", simCycles, runs)
	fmt.Fprintf(w, "  %-16s %14s %14s %9s %9s\n", "design", "interp vec/s", "compiled vec/s", "speedup", "2-state")

	for _, b := range designs.AllBenchmarks() {
		d, err := b.Elaborate()
		if err != nil {
			return nil, fmt.Errorf("elaborate %s: %w", b.Name, err)
		}
		st := genStim(d, simCycles, seed)
		var hitRate float64
		stats, err := runArms(runs,
			func() (int64, error) {
				si, err := sim.New(d)
				if err != nil {
					return 0, err
				}
				return driveStim(si, st)
			},
			func() (int64, error) {
				mc, err := simc.New(d)
				if err != nil {
					return 0, err
				}
				ns, err := driveStim(mc, st)
				if hits, misses := mc.TwoStateStats(); hits+misses > 0 {
					hitRate = float64(hits) / float64(hits+misses)
				}
				return ns, err
			})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		perSec := func(s armStats) float64 { return float64(simCycles) / (float64(s.MedianNS) / 1e9) }
		row := SimBenchRow{
			Design:                b.Name,
			Signals:               len(d.Signals),
			Procs:                 len(d.Procs),
			Cycles:                simCycles,
			InterpVectorsPerSec:   perSec(stats[0]),
			CompiledVectorsPerSec: perSec(stats[1]),
			TwoStateHitRate:       hitRate,
		}
		row.Speedup = row.CompiledVectorsPerSec / row.InterpVectorsPerSec
		rec.BestSpeedup = max(rec.BestSpeedup, row.Speedup)
		rec.Rows = append(rec.Rows, row)
		fmt.Fprintf(w, "  %-16s %14.0f %14.0f %8.2fx %8.1f%%\n",
			row.Design, row.InterpVectorsPerSec, row.CompiledVectorsPerSec,
			row.Speedup, row.TwoStateHitRate*100)
	}
	fmt.Fprintf(w, "  best speedup: %.2fx\n", rec.BestSpeedup)
	return rec, nil
}
