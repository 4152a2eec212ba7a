// The race detector makes sync.Pool drop items at random, and
// json.Encoder draws its scratch state from a pool, so the allocation
// pin only holds in a normal build.

//go:build !race

package obs

import "testing"

// TestJSONLTracerEmitDoesNotAllocate pins the flight recorder's encode
// path: the tracer reuses one encoder bound to its buffered writer, so
// emitting an event costs no heap allocation.
func TestJSONLTracerEmitDoesNotAllocate(t *testing.T) {
	tr := NewJSONLTracer(discardWriter{})
	ev := &Event{TNS: 30, Type: EvSpan, Vectors: 50, Points: 3, Span: "w1.i3.s1",
		Parent: "w1.i3", Kind: "solve", Cache: "miss", Outcome: "sat", BlastNS: 7, DurNS: 10}
	if allocs := testing.AllocsPerRun(1000, func() { tr.Emit(ev) }); allocs != 0 {
		t.Errorf("Emit allocates %.0f times per event, want 0", allocs)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
