package simc_test

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/simc"
	"repro/internal/simc/diff"
)

// TestLoweringBuiltinsAreOneWord pins the traffic the one-word lowering
// is for: every signal of every builtin design fits in a word, so every
// node must take it. A selection bug routing nodes wide would pass every
// parity test and show up only as lost throughput.
func TestLoweringBuiltinsAreOneWord(t *testing.T) {
	for _, b := range designs.AllBenchmarks() {
		d, err := b.Elaborate()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		words, wides, _, err := simc.Lowering(d)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if words == 0 || wides != 0 {
			t.Errorf("%s: %d one-word nodes, %d wide nodes; want every node one-word", b.Name, words, wides)
		}
	}
}

// TestLoweringRandomIRTakesBoth keeps TestDiffRandomIR's designs
// exercising both lowerings: each seed lowers at least one node each
// way, and some one-word node reads a wide operand.
func TestLoweringRandomIRTakesBoth(t *testing.T) {
	narrowedAll := 0
	for seed := int64(0); seed < 40; seed++ {
		words, wides, narrowed, err := simc.Lowering(diff.Generate(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if words == 0 || wides == 0 {
			t.Errorf("seed %d: %d one-word nodes, %d wide nodes; want both", seed, words, wides)
		}
		narrowedAll += narrowed
	}
	if narrowedAll == 0 {
		t.Error("no one-word node reads a wide operand")
	}
}
