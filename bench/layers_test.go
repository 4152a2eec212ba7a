package main

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// TestLayerPassMatchesEngine pins the rebuilt loop to the engine: at
// the CLI defaults guidance does not fire within 3000 vectors, so the
// engine runs exactly the random-stimulus loop and both must cover and
// find the same.
func TestLayerPassMatchesEngine(t *testing.T) {
	w := workload{Designs: []string{"opentitan_mini"}, Interval: 300, Threshold: 3, Vectors: 3000}
	b, properties, err := resolve("opentitan_mini")
	if err != nil {
		t.Fatal(err)
	}
	c := w.engineConfig(1)
	d, err := b.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(d, properties, c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SymbolicInvocations != 0 {
		t.Fatalf("guidance fired %d times; the rebuilt loop does not model it", rep.SymbolicInvocations)
	}

	rec := newRecorder()
	ls := &layerStats{}
	out, err := rebuiltLoop(b, properties, c, rec, 0, ls)
	if err != nil {
		t.Fatal(err)
	}
	if out.Points != rep.FinalPoints || out.EdgesCovered != rep.EdgesCovered {
		t.Errorf("rebuilt loop: points %d edges %d; engine: points %d edges %d",
			out.Points, out.EdgesCovered, rep.FinalPoints, rep.EdgesCovered)
	}
	if !slices.Equal(out.Bugs, rep.Bugs) {
		t.Errorf("rebuilt loop bugs %v\nengine bugs %v", out.Bugs, rep.Bugs)
	}
	if len(rep.Bugs) == 0 {
		t.Error("no violations in 3000 vectors; the comparison is vacuous")
	}
	if ls.Vectors != rep.Vectors || ls.Cycles != rep.Cycles {
		t.Errorf("rebuilt loop ran %d vectors / %d cycles, engine %d / %d", ls.Vectors, ls.Cycles, rep.Vectors, rep.Cycles)
	}

	// Ten intervals, each with a span per layer that ran in it.
	var sum int64
	intervals := 0
	for _, s := range rec.spans {
		if s.Name == "interval" {
			intervals++
			continue
		}
		if s.BusyNS < 0 || s.EndNS < s.StartNS {
			t.Errorf("bad span %+v", s)
		}
		sum += s.BusyNS
	}
	if intervals != 10 {
		t.Errorf("%d interval spans, want 10", intervals)
	}
	if sum > ls.LoopNS {
		t.Errorf("layer spans sum to %d ns, more than the loop's %d ns", sum, ls.LoopNS)
	}
}
