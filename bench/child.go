package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/props"
)

// childEnv marks a process as a child running one job.
const childEnv = "BENCH_CHILD"

// setupReps is how many back-to-back constructions a child times; it
// reports their median as the set-up time.
const setupReps = 3

// Job modes.
const (
	modeRun    = "run"    // untraced campaign rep (engine or fleet)
	modeParity = "parity" // in-process par.Run of a fleet rep's spec
	modeTraced = "traced" // setup layers, rebuilt loop, traced fleet
)

// job is the generated configuration a child receives on stdin. It
// carries campaign seeds, not the benchmark seed.
type job struct {
	W    workload `json:"workload"`
	Mode string   `json:"mode"`
	Seed int64    `json:"seed"`
	// WorkDir is scratch space (fleet journals), removed by the child.
	WorkDir string `json:"work_dir"`
	// SpanFile receives the traced run's spans.
	SpanFile string `json:"span_file,omitempty"`
}

// designRun is one design's campaign outcome inside a rep.
type designRun struct {
	Name   string       `json:"name"`
	Report *core.Report `json:"report"`
	// Planted names the design's planted-bug properties.
	Planted []string `json:"planted"`
}

// rtDelta is the Go runtime's work during the measured runs.
type rtDelta struct {
	AllocBytes float64 `json:"alloc_bytes"`
	GCCPUS     float64 `json:"gc_cpu_s"`
	GCCycles   float64 `json:"gc_cycles"`
}

// childResult is the one JSON line a child prints.
type childResult struct {
	// SetupNS is the median of setupReps constructions, summed over
	// designs.
	SetupNS int64 `json:"setup_ns"`
	// RunNS is the measured campaign wall time summed over designs; for
	// a fleet, from starting the workers to WaitCampaign.
	RunNS   int64       `json:"run_ns"`
	Designs []designRun `json:"designs"`
	Runtime rtDelta     `json:"runtime"`
	Fleet   *fleetStats `json:"fleet,omitempty"`
	Layers  *layerStats `json:"layers,omitempty"`
	Err     string      `json:"err,omitempty"`
	// MaxRSSKB is filled in by the parent from the child's rusage.
	MaxRSSKB int64 `json:"max_rss_kb"`
}

// childMain runs the job read from stdin and prints its result.
func childMain() int {
	var j job
	if err := json.NewDecoder(os.Stdin).Decode(&j); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: read job:", err)
		return 2
	}
	res, err := runJob(j)
	if err != nil {
		res = &childResult{Err: err.Error()}
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: write result:", err)
		return 2
	}
	return 0
}

func runJob(j job) (*childResult, error) {
	if j.WorkDir != "" {
		defer os.RemoveAll(j.WorkDir)
	}
	switch {
	case j.Mode == modeRun && j.W.Ranks > 0:
		return runFleet(j, nil)
	case j.Mode == modeRun:
		return runEngines(j)
	case j.Mode == modeParity:
		return runParity(j)
	case j.Mode == modeTraced:
		return runTraced(j)
	}
	return nil, fmt.Errorf("unknown job mode %q", j.Mode)
}

// runEngines runs each design's campaign in turn: setupReps timed
// constructions, then Run on the last one.
func runEngines(j job) (*childResult, error) {
	res := &childResult{}
	for _, name := range j.W.Designs {
		b, properties, err := resolve(name)
		if err != nil {
			return nil, err
		}
		c := j.W.engineConfig(j.Seed)
		var eng *core.Engine
		setups := make([]float64, 0, setupReps)
		for i := 0; i < setupReps; i++ {
			t0 := time.Now()
			d, err := b.Elaborate()
			if err != nil {
				return nil, err
			}
			if eng, err = core.New(d, properties, c); err != nil {
				return nil, err
			}
			setups = append(setups, float64(time.Since(t0)))
		}
		res.SetupNS += int64(median(setups))

		// The CLI constructs one engine; the discarded ones must not be
		// collected on the measured run's time.
		runtime.GC()
		rt0 := readRuntime()
		start := time.Now()
		rep, err := eng.Run()
		res.RunNS += int64(time.Since(start))
		res.Runtime.add(rt0, readRuntime())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.Designs = append(res.Designs, designRun{Name: name, Report: rep, Planted: propNames(properties)})
	}
	return res, nil
}

// runParity runs a fleet rep's spec under the in-process par
// orchestrator; its merged report must equal the fleet's.
func runParity(j job) (*childResult, error) {
	name := j.W.Designs[0]
	b, properties, err := resolve(name)
	if err != nil {
		return nil, err
	}
	rep, err := par.Run(b.Elaborate, properties, par.Config{Config: j.W.engineConfig(j.Seed), Workers: j.W.Ranks})
	if err != nil {
		return nil, err
	}
	return &childResult{
		RunNS:   rep.WallNS,
		Designs: []designRun{{Name: name, Report: rep.Merged, Planted: propNames(properties)}},
	}, nil
}

// runtimeSamples are the runtime/metrics counters the benchmark reads.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func (d *rtDelta) add(before, after [3]float64) {
	d.AllocBytes += after[0] - before[0]
	d.GCCPUS += after[1] - before[1]
	d.GCCycles += after[2] - before[2]
}

func propNames(ps []*props.Property) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}
