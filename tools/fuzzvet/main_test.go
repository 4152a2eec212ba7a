package main

import (
	"path/filepath"
	"testing"
)

// countByRule tallies findings per rule.
func countByRule(fs []Finding) map[string]int {
	out := map[string]int{}
	for _, f := range fs {
		out[f.Rule]++
	}
	return out
}

// TestBadFixture checks every rule fires on the seeded-violation file.
// The fixture is vetted as if it lived in a deterministic+pure package
// so all three rules are in scope.
func TestBadFixture(t *testing.T) {
	fs, err := vetFile(filepath.Join("testdata", "bad.go"), "internal/cfg")
	if err != nil {
		t.Fatal(err)
	}
	got := countByRule(fs)
	want := map[string]int{
		"rangemap":   5, // send, go, external method call, 2x unsorted append
		"timenow":    2, // time.Now, time.Since
		"globalrand": 2, // rand.Seed, rand.Intn
	}
	for rule, n := range want {
		if got[rule] != n {
			t.Errorf("rule %s: %d findings, want %d\nall: %v", rule, got[rule], n, fs)
		}
	}
	if len(fs) != 5+2+2 {
		t.Errorf("total findings = %d, want 9: %v", len(fs), fs)
	}
}

// TestLedgerFixture vets the cost-ledger fixture under the
// internal/obs scope: both order-leaking ledger ranges are caught,
// the sorted collect-then-index idiom passes, and the wall-clock
// reads obs legitimately does draw no timenow finding (obs is
// deterministic, not pure — its timings are annotations).
func TestLedgerFixture(t *testing.T) {
	fs, err := vetFile(filepath.Join("testdata", "ledger.go"), "internal/obs")
	if err != nil {
		t.Fatal(err)
	}
	got := countByRule(fs)
	if got["rangemap"] != 2 {
		t.Errorf("rangemap: %d findings, want 2 (unsorted append + external emit)\nall: %v", got["rangemap"], fs)
	}
	if got["timenow"] != 0 {
		t.Errorf("timenow fired in internal/obs (timings are allowed): %v", fs)
	}
	if len(fs) != 2 {
		t.Errorf("total findings = %d, want 2: %v", len(fs), fs)
	}
}

// TestGoodFixture checks the clean-idiom file produces zero findings.
func TestGoodFixture(t *testing.T) {
	fs, err := vetFile(filepath.Join("testdata", "good.go"), "internal/cfg")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("clean fixture produced findings: %v", fs)
	}
}

// TestRuleScoping checks rules only apply in their scoped packages:
// the engine and uvm layers may read the clock, and packages outside
// the determinism set may range maps freely.
func TestRuleScoping(t *testing.T) {
	// internal/core is deterministic (rangemap, globalrand) but not
	// pure (no timenow).
	fs, err := vetFile(filepath.Join("testdata", "bad.go"), "internal/core")
	if err != nil {
		t.Fatal(err)
	}
	got := countByRule(fs)
	if got["timenow"] != 0 {
		t.Errorf("timenow fired in internal/core: %v", fs)
	}
	if got["rangemap"] == 0 || got["globalrand"] == 0 {
		t.Errorf("rangemap/globalrand missing in internal/core: %v", got)
	}
	// internal/elab is pure but not in the rangemap set.
	fs, err = vetFile(filepath.Join("testdata", "bad.go"), "internal/elab")
	if err != nil {
		t.Fatal(err)
	}
	got = countByRule(fs)
	if got["rangemap"] != 0 {
		t.Errorf("rangemap fired in internal/elab: %v", fs)
	}
	if got["timenow"] == 0 {
		t.Errorf("timenow missing in internal/elab: %v", got)
	}
}

// TestRepoClean is the self-test: the repo this checker ships in must
// itself be clean. A regression here means someone introduced a
// nondeterminism hazard in a scoped package.
func TestRepoClean(t *testing.T) {
	fs, vetted, err := run(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("repo finding: %s", f)
	}
	// A walk that skips its own root vets nothing and passes vacuously.
	if vetted["internal/cfg"] == 0 {
		t.Errorf("vetted no file in internal/cfg: %v", vetted)
	}
}
