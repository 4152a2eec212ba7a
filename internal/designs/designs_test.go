package designs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestAllIPsElaborate(t *testing.T) {
	for _, ip := range AllIPs() {
		for _, buggy := range []bool{false, true} {
			b := IPBenchmark(ip, buggy)
			d, err := b.Elaborate()
			if err != nil {
				t.Fatalf("%s (buggy=%v): %v", ip.Name, buggy, err)
			}
			if d.Branches == 0 {
				t.Errorf("%s has no instrumented branches", ip.Name)
			}
			if b.LoC == 0 {
				t.Errorf("%s reports zero LoC", ip.Name)
			}
			// The design must simulate and reset cleanly.
			s, err := sim.New(d)
			if err != nil {
				t.Fatalf("%s: sim: %v", ip.Name, err)
			}
			info := sim.DetectClockReset(d)
			if info.Clock < 0 || info.Reset < 0 {
				t.Fatalf("%s: clock/reset not detected", ip.Name)
			}
			if err := s.ApplyReset(info, 2); err != nil {
				t.Fatalf("%s: reset: %v", ip.Name, err)
			}
		}
	}
}

func TestALUElaborates(t *testing.T) {
	b := ALU()
	d, err := b.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.InputSignals()); got != 4 {
		t.Errorf("ALU inputs = %d", got)
	}
}

func TestBugRegistry(t *testing.T) {
	bugs := AllBugs()
	if len(bugs) != 14 {
		t.Fatalf("planted bugs = %d, want 14", len(bugs))
	}
	seen := map[string]bool{}
	for _, b := range bugs {
		if seen[b.ID] {
			t.Errorf("duplicate bug %s", b.ID)
		}
		seen[b.ID] = true
		if b.CWE == "" || b.Description == "" || b.SubModule == "" {
			t.Errorf("bug %s metadata incomplete: %+v", b.ID, b)
		}
		p := b.Property("")
		if p == nil || p.Name == "" {
			t.Errorf("bug %s has no property", b.ID)
		}
	}
	for i := 1; i <= 14; i++ {
		id := "B" + pad2(i)
		if !seen[id] {
			t.Errorf("bug %s missing", id)
		}
	}
	if _, _, ok := FindIP("B04"); !ok {
		t.Error("FindIP failed for B04")
	}
	if _, _, ok := FindIP("B99"); ok {
		t.Error("FindIP found a phantom bug")
	}
}

func pad2(i int) string {
	if i < 10 {
		return "0" + string(rune('0'+i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// TestFixedIPsViolateNothing drives every fixed IP with random stimulus
// and checks the bug properties stay silent: the assertions themselves
// must not be trigger-happy.
func TestFixedIPsViolateNothing(t *testing.T) {
	for _, ip := range AllIPs() {
		b := IPBenchmark(ip, false)
		d, err := b.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.New(d, b.Properties, core.Config{
			Interval: 60, Threshold: 2, MaxVectors: 4000, Seed: 21, UseSnapshots: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", ip.Name, err)
		}
		rep, err := eng.Run()
		if err != nil {
			t.Fatalf("%s: %v", ip.Name, err)
		}
		if len(rep.Bugs) != 0 {
			t.Errorf("%s (fixed) raised violations: %+v", ip.Name, rep.Bugs)
		}
	}
}

// TestSymbFuzzFindsEveryPlantedBug is the core Table 1/2 claim: SymbFuzz
// detects all fourteen bugs on the buggy IPs.
func TestSymbFuzzFindsEveryPlantedBug(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, ip := range AllIPs() {
		ip := ip
		t.Run(ip.Name, func(t *testing.T) {
			b := IPBenchmark(ip, true)
			d, err := b.Elaborate()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.New(d, b.Properties, core.Config{
				Interval: 100, Threshold: 2, MaxVectors: 60_000, Seed: 5, UseSnapshots: true,
				ContinueAfterCoverage: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			found := map[string]bool{}
			for _, bug := range rep.Bugs {
				found[bug.Property] = true
			}
			for _, bug := range ip.Bugs {
				p := bug.Property("")
				if !found[p.Name] {
					t.Errorf("bug %s (%s) not detected: %s", bug.ID, p.Name, rep)
				}
			}
		})
	}
}

// TestLookupTable checks the benchmark-name table against the builtin
// lists: every AllBenchmarks name resolves, its fixed variant is the
// listed benchmark, and its buggy variant differs exactly when the
// design carries injected bugs; every AllIPs name resolves to its
// IPBenchmark in both variants.
func TestLookupTable(t *testing.T) {
	for _, want := range AllBenchmarks() {
		fixed, ok := Lookup(want.Name, false)
		if !ok || fixed.Name != want.Name || fixed.Source != want.Source ||
			len(fixed.Properties) != len(want.Properties) {
			t.Errorf("Lookup(%q, fixed) does not match AllBenchmarks", want.Name)
			continue
		}
		buggy, ok := Lookup(want.Name, true)
		if !ok || buggy.Name != want.Name {
			t.Errorf("Lookup(%q, buggy) = %v, %v", want.Name, buggy, ok)
			continue
		}
		if hasBugs := len(want.Bugs) > 0; (buggy.Source != fixed.Source) != hasBugs {
			t.Errorf("%s: buggy source differs = %v, want %v", want.Name, buggy.Source != fixed.Source, hasBugs)
		}
	}
	for _, ip := range AllIPs() {
		for _, bug := range []bool{false, true} {
			got, ok := Lookup(ip.Name, bug)
			if !ok || got.Source != IPBenchmark(ip, bug).Source {
				t.Errorf("Lookup(%q, %v) is not its IPBenchmark", ip.Name, bug)
			}
		}
	}
	if b, ok := Lookup("no_such_design", false); ok {
		t.Errorf("unknown name resolved to %v", b.Name)
	}
}
