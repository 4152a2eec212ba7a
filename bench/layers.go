package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/designs"
	"repro/internal/lint"
	"repro/internal/logic"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/uvm"
)

// Layers of the rebuilt random-stimulus loop. Each is timed around a
// call into the layer's public API from this file, so a layer's time
// is what its callers wait for.
const (
	lNextItem = iota // Sequencer.NextItem
	lStep            // Driver.Apply minus the cycle listeners it runs
	lProps           // props.Checker.Sample
	lMonitor         // uvm.Monitor sample plus scoreboard
	lCov             // cov.CFGCov.Sample
	lSnapshot        // DUV.Snapshot at the first visit of a (cluster, node)
	lLoop            // explicit bookkeeping: input prefix, checkpoints, curve, cycle count
	nLayers
)

var layerNames = [nLayers]string{"uvm.next_item", "simc.step", "props.check", "uvm.monitor", "cov.sample", "core.snapshot", "core.loop"}

// Set-up layers, each one public call timed on its own.
var setupNames = []string{"elab.elaborate", "uvm.env", "cfg.transition", "cfg.partition", "lint.reach"}

// span is one record of the trace file. A layer span aggregates every
// call of that layer within one interval: start of the first call, end
// of the last, the call count and the summed busy time. Label is the
// design of a run span and the URL path of an RPC span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Label   string `json:"label,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Calls   int64  `json:"calls"`
	BusyNS  int64  `json:"busy_ns"`
}

type acc struct {
	busy, calls, first, last int64
}

func (a *acc) add(start, end, busy int64) {
	if a.calls == 0 {
		a.first = start
	}
	a.last = end
	a.calls++
	a.busy += busy
}

// recorder keeps spans in memory and accumulates layer totals.
type recorder struct {
	base  time.Time
	iv    [nLayers]acc
	total [nLayers]acc
	// listenerNS is the running time spent in cycle listeners; the
	// step's self time subtracts what accrued during Apply.
	listenerNS int64
	spans      []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) span(parent int, name, label string, start, end, calls, busy int64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Label: label, StartNS: start, EndNS: end, Calls: calls, BusyNS: busy})
	return id
}

// closeInterval emits one interval span with a child per active layer
// and folds the interval into the totals.
func (r *recorder) closeInterval(parent int, start, end int64) {
	id := r.span(parent, "interval", "", start, end, 1, end-start)
	for l := range r.iv {
		a := r.iv[l]
		if a.calls == 0 {
			continue
		}
		r.span(id, layerNames[l], "", a.first, a.last, a.calls, a.busy)
		t := &r.total[l]
		t.busy += a.busy
		t.calls += a.calls
	}
	r.iv = [nLayers]acc{}
}

func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedDUV forwards to a real backend. Every cycle listener bound
// through it is timed and charged to the layer set when it was bound,
// and branch events are counted on their way to the tracer.
type tracedDUV struct {
	sim.DUV
	rec      *recorder
	layer    int
	branches uint64
}

func (t *tracedDUV) OnCycle(fn sim.CycleListener) {
	l, rec := t.layer, t.rec
	t.DUV.OnCycle(func(s sim.DUV) {
		start := rec.now()
		fn(s)
		end := rec.now()
		rec.iv[l].add(start, end, end-start)
		rec.listenerNS += end - start
	})
}

func (t *tracedDUV) SetTracer(tr sim.Tracer) { t.DUV.SetTracer(countingTracer{tr, &t.branches}) }

type countingTracer struct {
	next sim.Tracer
	n    *uint64
}

func (c countingTracer) Branch(id, arm int) {
	*c.n++
	c.next.Branch(id, arm)
}

// loopOutcome is what the rebuilt loop covered and found; on a design
// where guidance never fires it must equal the engine's report.
type loopOutcome struct {
	Name         string           `json:"name"`
	Points       int              `json:"points"`
	EdgesCovered int              `json:"edges_covered"`
	Bugs         []core.BugRecord `json:"bugs"`
}

// layerStats is the traced run's layer split, summed over designs.
type layerStats struct {
	SetupS   map[string]float64 `json:"setup_s"`
	BusyNS   map[string]int64   `json:"busy_ns"`
	Calls    map[string]int64   `json:"calls"`
	Vectors  uint64             `json:"vectors"`
	Cycles   uint64             `json:"cycles"`
	Branches uint64             `json:"branches"`
	LoopNS   int64              `json:"loop_ns"`
	Loops    []loopOutcome      `json:"loops"`
}

// runTraced times each design's set-up layers, then drives the
// rebuilt loop over the rep's configuration; a fleet workload also
// runs its campaign with the timing transport installed.
func runTraced(j job) (*childResult, error) {
	rec := newRecorder()
	ls := &layerStats{SetupS: map[string]float64{}, BusyNS: map[string]int64{}, Calls: map[string]int64{}}
	for _, name := range j.W.Designs {
		b, properties, err := resolve(name)
		if err != nil {
			return nil, err
		}
		c := j.W.engineConfig(j.Seed)
		start := rec.now()
		runID := rec.span(0, "run", name, start, start, 1, 0)
		if err := timeSetup(b, properties, c, rec, runID, ls); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out, err := rebuiltLoop(b, properties, c, rec, runID, ls)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out.Name = name
		ls.Loops = append(ls.Loops, *out)
		run := &rec.spans[runID-1]
		run.EndNS = rec.now()
		run.BusyNS = run.EndNS - run.StartNS
	}
	for l, t := range rec.total {
		ls.BusyNS[layerNames[l]] = t.busy
		ls.Calls[layerNames[l]] = t.calls
	}
	res := &childResult{Layers: ls}
	if j.W.Ranks > 0 {
		wire := &timedTransport{rec: rec}
		start := rec.now()
		fr, err := runFleet(j, wire)
		if err != nil {
			return nil, err
		}
		end := rec.now()
		id := rec.span(0, "fleet", j.W.Designs[0], start, end, 1, end-start)
		for _, c := range wire.calls {
			rec.span(id, "dist.rpc", c.path, c.start, c.end, 1, c.end-c.start)
		}
		res.Fleet, res.RunNS = fr.Fleet, fr.RunNS
	}
	if j.SpanFile != "" {
		if err := rec.writeSpans(j.SpanFile); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timeSetup times the set-up layers setupReps times on fresh designs
// and adds each layer's median to ls.
func timeSetup(b *designs.Benchmark, properties []*props.Property, c core.Config, rec *recorder, parent int, ls *layerStats) error {
	samples := make([][]float64, len(setupNames))
	setupStart := rec.now()
	for i := 0; i < setupReps; i++ {
		var d0 time.Time
		lap := func(k int) {
			samples[k] = append(samples[k], time.Since(d0).Seconds())
			d0 = time.Now()
		}
		d0 = time.Now()
		d, err := b.Elaborate()
		if err != nil {
			return err
		}
		lap(0)
		env, err := uvm.NewEnv(d, uvm.EnvConfig{Seed: c.Seed, Properties: properties, ResetCycles: c.ResetCycles, SimBackend: c.SimBackend})
		if err != nil {
			return err
		}
		if err := env.Reset(); err != nil {
			return err
		}
		lap(1)
		tr, err := cfg.BuildTransition(d)
		if err != nil {
			return err
		}
		lap(2)
		// Graph options and reset valuation as core.New derives them.
		pin := map[string]logic.BV{}
		if info := env.ClockInfo; info.Reset >= 0 {
			v := logic.Ones(1)
			if !info.ActiveLow {
				v = logic.Zero(1)
			}
			pin[d.Signals[info.Reset].Name] = v
		}
		reset := map[int]logic.BV{}
		for _, cr := range cfg.ControlRegisters(d) {
			reset[cr.Sig.Index] = env.Sim.Get(cr.Sig.Index)
		}
		d0 = time.Now()
		if _, err := cfg.BuildPartition(d, tr, reset, cfg.Options{Pin: pin}); err != nil {
			return err
		}
		lap(3)
		lint.AnalyzeReachability(d)
		lap(4)
	}
	setupEnd := rec.now()
	id := rec.span(parent, "setup", "", setupStart, setupEnd, setupReps, setupEnd-setupStart)
	for k, name := range setupNames {
		var sum float64
		for _, s := range samples[k] {
			sum += s
		}
		rec.span(id, name, "", setupStart, setupEnd, int64(len(samples[k])), int64(sum*1e9))
		ls.SetupS[name] += median(samples[k])
	}
	return nil
}

// rebuiltLoop replays the engine's random-stimulus interval loop
// (core.Engine.RunContext without guidance) from public parts, with
// every layer call timed. Components are bound in the engine's order,
// so the trajectory matches an engine run in which guidance never
// fires.
func rebuiltLoop(b *designs.Benchmark, properties []*props.Property, c core.Config, rec *recorder, parent int, ls *layerStats) (*loopOutcome, error) {
	d, err := b.Elaborate()
	if err != nil {
		return nil, err
	}
	eng, err := core.New(d, properties, c)
	if err != nil {
		return nil, err
	}
	part := eng.Graph()

	// A second design instance for the loop's own simulator; cluster
	// graphs index signals identically across elaborations.
	d, err = b.Elaborate()
	if err != nil {
		return nil, err
	}
	inner, err := uvm.NewBackend(d, c.SimBackend)
	if err != nil {
		return nil, err
	}
	w := &tracedDUV{DUV: inner, rec: rec}
	info := sim.DetectClockReset(d)
	exclude := map[string]bool{}
	for _, idx := range []int{info.Clock, info.Reset} {
		if idx >= 0 {
			exclude[d.Signals[idx].Name] = true
		}
	}
	seq := uvm.SequencerForDesign(d, exclude, c.Seed)
	drv := uvm.NewDriver("driver", w, info.Clock)
	var chk *props.Checker
	if len(properties) > 0 {
		chk = props.NewChecker(properties...)
		w.layer = lProps
		chk.Bind(w)
	}
	w.layer = lMonitor
	mon := uvm.NewMonitor("monitor", w, nil)
	// The engine's monitor also feeds the environment's scoreboard,
	// which NewMonitor cannot wire from outside the package; feed one
	// here so the layer costs what it costs in a campaign.
	board := uvm.NewScoreboard("scoreboard")
	outs := d.OutputSignals()
	w.OnCycle(func(sim.DUV) {
		for _, o := range outs {
			board.Observe(o.Name, w.Cycle(), mon.Observations[o.Name])
		}
	})
	if err := w.ApplyReset(info, 2); err != nil {
		return nil, err
	}
	cover := cov.NewCFGCov(part)
	w.layer = lCov
	cov.Attach(w, cover)
	var cycles uint64
	w.layer = lLoop
	w.OnCycle(func(sim.DUV) { cycles++ })
	// Reset cycles are set-up, not loop time.
	rec.iv = [nLayers]acc{}
	cycles, w.branches = 0, 0

	out := &loopOutcome{}
	var prefix []*uvm.Item
	checkpoints := map[[2]int][]*uvm.Item{}
	var curve []core.CurvePoint
	var vectors, nextCurve uint64
	bugSeen := 0
	loopStart := rec.now()
	for vectors < c.MaxVectors {
		ivStart := rec.now()
		for i := 0; i < c.Interval && vectors < c.MaxVectors; i++ {
			// Each layer has its own clock pair: loop control, the
			// clock reads between pairs and the interval-end checks stay
			// unattributed, so trace.layer_sum_frac can fall short.
			t0 := rec.now()
			it := seq.NextItem()
			t1 := rec.now()
			rec.iv[lNextItem].add(t0, t1, t1-t0)
			l0 := rec.listenerNS
			a0 := rec.now()
			if err := drv.Apply(it); err != nil {
				return nil, err
			}
			a1 := rec.now()
			rec.iv[lStep].add(a0, a1, a1-a0-(rec.listenerNS-l0))
			b0 := rec.now()
			prefix = append(prefix, it)
			vectors++
			var snap *sim.Snapshot
			var snapNS int64
			for gi := range part.Graphs {
				node := cover.PrevNode(gi)
				key := [2]int{gi, node}
				if _, ok := checkpoints[key]; ok || node < 0 {
					continue
				}
				checkpoints[key] = append([]*uvm.Item(nil), prefix...)
				if snap == nil {
					s0 := rec.now()
					snap = w.Snapshot()
					s1 := rec.now()
					rec.iv[lSnapshot].add(s0, s1, s1-s0)
					snapNS = s1 - s0
				}
			}
			if vectors >= nextCurve {
				curve = append(curve, core.CurvePoint{Vectors: vectors, Points: cover.Points()})
				nextCurve += uint64(c.Interval)
			}
			b1 := rec.now()
			rec.iv[lLoop].add(b0, b1, b1-b0-snapNS)
		}
		if chk != nil {
			for vs := chk.Violations(); bugSeen < len(vs); bugSeen++ {
				out.Bugs = append(out.Bugs, core.BugRecord{Violation: vs[bugSeen], Vectors: vectors})
			}
		}
		rec.closeInterval(parent, ivStart, rec.now())
	}
	ls.LoopNS += rec.now() - loopStart
	ls.Vectors += vectors
	ls.Cycles += cycles
	ls.Branches += w.branches
	out.Points = cover.Points()
	out.EdgesCovered, _ = cover.EdgeCoverage()
	return out, nil
}
