package main

import (
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRunArmsInterleavesAndSummarizes drives the arm runner with fake
// arms of fixed durations: calls alternate A, B, A, B…, and each arm's
// median and min/max spread come from its own runs.
func TestRunArmsInterleavesAndSummarizes(t *testing.T) {
	var calls []string
	fake := func(name string, walls ...int64) arm {
		i := 0
		return func() (int64, error) {
			calls = append(calls, name)
			ns := walls[i]
			i++
			return ns, nil
		}
	}
	stats, err := runArms(4, fake("a", 40, 10, 30, 20), fake("b", 5, 7, 6, 100))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "a", "b", "a", "b", "a", "b"}; !slices.Equal(calls, want) {
		t.Errorf("call order = %v, want %v", calls, want)
	}
	want := []armStats{{MedianNS: 25, MinNS: 10, MaxNS: 40}, {MedianNS: 6, MinNS: 5, MaxNS: 100}}
	if !slices.Equal(stats, want) {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}

	stats, err = runArms(3, fake("c", 9, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if stats[0] != (armStats{MedianNS: 5, MinNS: 1, MaxNS: 9}) {
		t.Errorf("odd-count stats = %+v", stats[0])
	}
}

// fakeOverhead is an overhead experiment whose on arm reports the given
// work and whose runs all return the same report.
func fakeOverhead(work int64) overheadExp {
	rep := &core.Report{}
	return overheadExp{
		name: "fake", title: "Fake overhead", bench: "none", workers: 1, runs: 3, workUnit: "events",
		run: func(on bool) (instrumentRun, error) {
			r := instrumentRun{wallNS: 1000, report: rep}
			if on {
				r.work = work
			}
			return r, nil
		},
	}
}

// TestOverheadFailsOnZeroWork: an instrument that did nothing in its
// on arm was not measured, so the experiment fails instead of
// recording a free overhead.
func TestOverheadFailsOnZeroWork(t *testing.T) {
	if rec, err := runOverhead(fakeOverhead(0), 1, 0, io.Discard); rec != nil || err == nil || !strings.Contains(err.Error(), "no work") {
		t.Fatalf("zero work: rec = %v, err = %v; want no record and a no-work error", rec, err)
	}
	got, err := runOverhead(fakeOverhead(42), 1, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rec := got.(*OverheadBench); rec.Work != 42 || rec.Runs != 3 || rec.Overhead != 1 || !rec.Within5 || !rec.ParityEqual {
		t.Errorf("record = %+v", rec)
	}
}
