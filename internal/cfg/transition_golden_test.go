package cfg_test

// The transition-term golden pins BuildTransition's output on every
// builtin, buggy and fixed, and on one fixture: the printed Comb and
// Next terms, the equation count, and the pointer structure of the
// term DAG. Blasting walks terms by pointer, so two transitions that
// print the same but share subterms differently blast to different
// solvers; the DAG hash catches that where the printed form cannot.

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/designs"
	"repro/internal/smt"
)

var updateTerms = flag.Bool("update", false, "rewrite the transition-term golden")

// holdsSrc reads signals that have no value yet inside nested if and
// case arms of a combinational process, so hold variables are minted
// in arm scopes and merged, and its sequential process mixes partial,
// bit and blocking writes. The builtins mint almost no hold variable
// inside an arm.
const holdsSrc = `
module holds (input clk_i, input rst_ni, input [1:0] sel, input [3:0] a, input en,
              output reg [3:0] q, output reg [3:0] r, output reg [3:0] lat,
              output reg [3:0] y);
  reg [3:0] t;
  always_comb begin
    if (en) begin
      if (sel[0]) lat = a;
      y = lat + t;
    end else begin
      case (sel)
        2'd0: y = t;
        2'd1: begin
          y = a;
          t = y;
        end
        default: y = lat;
      endcase
    end
  end
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      q <= 4'd0;
      r <= 4'd0;
    end else begin
      if (en) q[1:0] <= sel;
      else q[sel] <= a[0];
      case (sel)
        2'd2: r = r + 4'd1;
        default: r <= q;
      endcase
    end
  end
endmodule`

const termsGolden = "testdata/transition_terms.golden"

func sortedKeys(env cfg.SymEnv) []int {
	keys := make([]int, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// printedHash hashes every term's String() in signal-index order.
func printedHash(env cfg.SymEnv) string {
	h := sha256.New()
	for _, k := range sortedKeys(env) {
		fmt.Fprintf(h, "%d=%s\n", k, env[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// dagHasher numbers term nodes by pointer in first-visit post-order, so
// the hash records which subterms are shared and not only their shape.
type dagHasher struct {
	h  hash.Hash
	id map[*smt.Term]int
}

func (dh *dagHasher) visit(t *smt.Term) int {
	if id, ok := dh.id[t]; ok {
		return id
	}
	args := make([]int, len(t.Args))
	for i, a := range t.Args {
		args[i] = dh.visit(a)
	}
	id := len(dh.id)
	dh.id[t] = id
	fmt.Fprintf(dh.h, "%d k%d w%d %q", id, t.Kind, t.W, t.Name)
	if t.Kind == smt.KConst {
		fmt.Fprintf(dh.h, " %s", t.Val.BitString())
	}
	fmt.Fprintf(dh.h, " [%d:%d] %v\n", t.Hi, t.Lo, args)
	return id
}

func (dh *dagHasher) roots(tag string, env cfg.SymEnv) {
	for _, k := range sortedKeys(env) {
		fmt.Fprintf(dh.h, "%s %d -> %d\n", tag, k, dh.visit(env[k]))
	}
}

func transitionLine(t *testing.T, b *designs.Benchmark, variant string) string {
	t.Helper()
	d, err := b.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := cfg.BuildTransition(d)
	if err != nil {
		t.Fatal(err)
	}
	dh := &dagHasher{h: sha256.New(), id: map[*smt.Term]int{}}
	dh.roots("comb", tr.Comb)
	dh.roots("next", tr.Next)
	return fmt.Sprintf("%s %s eqs=%d comb=%s next=%s dag=%s nodes=%d",
		b.Name, variant, tr.EqCount, printedHash(tr.Comb), printedHash(tr.Next),
		fmt.Sprintf("%x", dh.h.Sum(nil)[:8]), len(dh.id))
}

func TestTransitionTermsGolden(t *testing.T) {
	var lines []string
	for _, fixed := range designs.AllBenchmarks() {
		for _, buggy := range []bool{true, false} {
			b, ok := designs.Lookup(fixed.Name, buggy)
			if !ok {
				t.Fatalf("no builtin %s", fixed.Name)
			}
			variant := "fixed"
			if buggy {
				variant = "buggy"
			}
			lines = append(lines, transitionLine(t, b, variant))
		}
	}
	lines = append(lines, transitionLine(t, &designs.Benchmark{Name: "holds", Top: "holds", Source: holdsSrc}, "fixture"))
	got := strings.Join(lines, "\n") + "\n"
	if *updateTerms {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(termsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(termsGolden)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/cfg -run TransitionTermsGolden -update)", err)
	}
	if got != string(want) {
		wantLines := strings.Split(string(want), "\n")
		for i, l := range strings.Split(got, "\n") {
			if i >= len(wantLines) || l != wantLines[i] {
				t.Errorf("transition terms moved:\n got  %s\n want %s", l, wantLines[min(i, len(wantLines)-1)])
			}
		}
	}
}
