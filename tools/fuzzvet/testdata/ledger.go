// Package ledger is a fuzzvet fixture for the internal/obs scope: a
// cost-ledger aggregation whose map iteration leaks order into the
// dumped ledger. The canonical ledger must be byte-identical across
// runs, so every range over a per-target map has to sort its keys
// before emitting — the functions below skip that and must be flagged.
// The file lives under testdata/ so the go tool never builds it;
// fuzzvet's own tests parse it directly.
package ledger

import (
	"sort"
	"time"
)

type entry struct {
	graph, edge int
	clauses     int64
}

type profiler struct {
	solver map[[2]int]*entry
}

type dumper struct{}

func (d *dumper) emit(*entry) {}

// leakyLedger appends ledger rows in map iteration order: two dumps of
// the same profiler would disagree on row order.
func leakyLedger(p *profiler) []entry {
	var rows []entry
	for _, e := range p.solver { // leak: unsorted append to loop-external slice
		rows = append(rows, *e)
	}
	return rows
}

// leakyEmit streams entries through a loop-external writer in map
// order, so the serialized ledger bytes depend on iteration order.
func leakyEmit(p *profiler, d *dumper) {
	for _, e := range p.solver { // leak: method call on loop-external receiver
		d.emit(e)
	}
}

// sortedLedger is the clean idiom — collect keys, sort by
// (graph, edge), then index — and must not be flagged.
func sortedLedger(p *profiler) []entry {
	keys := make([][2]int, 0, len(p.solver))
	for k := range p.solver {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	rows := make([]entry, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, *p.solver[k])
	}
	return rows
}

// sampleClock reads the wall clock: fine in internal/obs, whose
// timings are explicitly non-canonical annotations — the timenow rule
// must stay out of scope there.
func sampleClock(t0 time.Time) int64 {
	return int64(time.Since(t0))
}
