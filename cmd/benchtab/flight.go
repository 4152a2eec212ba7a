package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/obs"
)

// The flight experiment measures what the flight recorder costs: the
// same fixed-budget bus_arb campaign runs with the full span layer
// enabled (observer + JSONL tracer draining to io.Discard) and with a
// nil observer (the engine's no-op telemetry path). The work counter is
// the number of trace events the on arm emitted.

func runFlight(seed int64, runs int, w io.Writer) (any, error) {
	const budget = 20_000
	b, ok := designs.FindBenchmark("bus_arb")
	if !ok {
		return nil, fmt.Errorf("bus_arb benchmark missing")
	}
	_, cc := campaign(b.Name, budget, 1, seed)
	return runOverhead(overheadExp{
		name:     "flight",
		title:    "Flight-recorder overhead",
		bench:    b.Name,
		budget:   budget,
		workers:  1,
		runs:     3,
		workUnit: "trace_events",
		note: "on arm drives the full observer + causal-span layer into a JSONL tracer draining to " +
			"io.Discard, closed inside the timed region; off arm runs the engine's nil-observer no-op path",
		run: func(on bool) (instrumentRun, error) {
			d, err := b.Elaborate()
			if err != nil {
				return instrumentRun{}, err
			}
			c := cc
			tr := &countTracer{}
			if on {
				tr.next = obs.NewJSONLTracer(io.Discard)
				c.Obs = obs.New(obs.Options{Tracer: tr})
			}
			eng, err := core.New(d, b.Properties, c)
			if err != nil {
				return instrumentRun{}, err
			}
			start := time.Now()
			rep, err := eng.Run()
			if err != nil {
				return instrumentRun{}, err
			}
			if err := c.Obs.Close(); err != nil {
				return instrumentRun{}, err
			}
			return instrumentRun{
				wallNS: time.Since(start).Nanoseconds(),
				report: rep,
				work:   tr.events,
				info:   map[string]int64{"trace_spans": tr.spans},
			}, nil
		},
	}, seed, runs, w)
}

// countTracer tallies events and spans on their way to the next tracer.
type countTracer struct {
	next   obs.Tracer
	events int64
	spans  int64
}

func (c *countTracer) Emit(ev *obs.Event) {
	c.events++
	if ev.Type == obs.EvSpan {
		c.spans++
	}
	c.next.Emit(ev)
}

func (c *countTracer) Close() error { return c.next.Close() }
