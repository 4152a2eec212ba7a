// Package designs contains the benchmark RTL, written in the repo's HDL
// subset, that stands in for the paper's evaluation targets (§5): an
// OpenTitan-mini SoC of thirteen IP blocks carrying the fourteen
// security bugs of Table 1 behind per-bug toggles, the toy ALU of
// Listing 1, and three small processor cores (CVA6-mini, Rocket-mini,
// Mor1kx-mini) carrying the cross-paper bugs V1–V3 of §5.4. Each bug
// ships with the security property (§4.9) that detects it, transcribed
// from the paper's listings, and with observability tags that encode
// which detection models can see it (§5.2).
package designs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/props"
)

// Bug describes one planted vulnerability.
type Bug struct {
	// ID is the paper's bug number ("B01".."B14", "V1".."V3").
	ID string
	// Description matches Table 1's wording.
	Description string
	// SubModule is the afflicted module (Table 1 column 3).
	SubModule string
	// CWE classification (Table 1 column 5).
	CWE string
	// Property builds the detecting assertion; prefix is the instance
	// path under which the IP's signals live ("" when standalone).
	Property func(prefix string) *props.Property
}

// IP is one fuzzable hardware block.
type IP struct {
	// Name is the top module name of the block.
	Name string
	// Source renders the block's HDL; buggy selects the planted-bug
	// variant (all bugs of the block enabled) versus the fixed one.
	Source func(buggy bool) string
	// Bugs planted in this block.
	Bugs []Bug
	// Extra modules the source depends on (already included in Source).
	Desc string
}

// Benchmark is a ready-to-elaborate design plus its properties.
type Benchmark struct {
	Name       string
	Top        string
	Source     string
	Properties []*props.Property
	Bugs       []Bug
	LoC        int
}

// Elaborate parses and elaborates the benchmark.
func (b *Benchmark) Elaborate() (*elab.Design, error) {
	ast, err := hdl.Parse(b.Source)
	if err != nil {
		return nil, fmt.Errorf("designs: parse %s: %w", b.Name, err)
	}
	d, err := elab.Elaborate(ast, b.Top, nil)
	if err != nil {
		return nil, fmt.Errorf("designs: elaborate %s: %w", b.Name, err)
	}
	d.SourceLoC = b.LoC
	return d, nil
}

// countLoC counts non-blank source lines.
func countLoC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// pick substitutes the buggy or fixed snippet.
func pick(buggy bool, buggySnippet, fixedSnippet string) string {
	if buggy {
		return buggySnippet
	}
	return fixedSnippet
}

// prefixed joins an instance prefix and a signal name.
func prefixed(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "." + name
}

// notReset is the standard DisableIff guard for an active-low reset.
func notReset(prefix string) props.Expr {
	return props.Not(props.Sig(prefixed(prefix, "rst_ni")))
}

// AllIPs returns the OpenTitan-mini IP blocks in a stable order.
func AllIPs() []IP {
	return []IP{
		Mailbox(),
		LCCtrl(),
		AES(),
		OTBN(),
		ROMCtrl(),
		PwrMgr(),
		UART(),
		CSRNG(),
		SysRst(),
		OTP(),
	}
}

// IPBenchmark builds a standalone benchmark for one IP.
func IPBenchmark(ip IP, buggy bool) *Benchmark {
	src := ip.Source(buggy)
	b := &Benchmark{
		Name:   ip.Name,
		Top:    ip.Name,
		Source: src,
		Bugs:   ip.Bugs,
		LoC:    countLoC(src),
	}
	for _, bug := range ip.Bugs {
		b.Properties = append(b.Properties, bug.Property(""))
	}
	return b
}

// FindIP returns the IP carrying the given bug ID.
func FindIP(bugID string) (IP, Bug, bool) {
	for _, ip := range AllIPs() {
		for _, bug := range ip.Bugs {
			if bug.ID == bugID {
				return ip, bug, true
			}
		}
	}
	return IP{}, Bug{}, false
}

// AllBenchmarks returns every builtin benchmark in its fixed (bug-free)
// variant, in a stable order: the ALU, each IP block standalone, the
// three processor cores, and the assembled SoC. This is the design set
// static-analysis tooling (cmd/hdllint, the lint-clean tests) runs over.
func AllBenchmarks() []*Benchmark {
	out := []*Benchmark{ALU(), BusArb()}
	for _, ip := range AllIPs() {
		out = append(out, IPBenchmark(ip, false))
	}
	out = append(out,
		CVA6Mini(false),
		RocketMini(false),
		Mor1kxMini(false),
		OpenTitanMini(map[string]bool{}),
	)
	return out
}

// FindBenchmark returns the builtin benchmark with the given name, in
// its fixed variant.
func FindBenchmark(name string) (*Benchmark, bool) { return Lookup(name, false) }

// Lookup is the one benchmark-name table: it builds the named builtin
// with its injected bugs present (buggy) or fixed. The names are those
// of AllBenchmarks; alu and bus_arb have no bug variants and ignore
// buggy.
func Lookup(name string, buggy bool) (*Benchmark, bool) {
	switch name {
	case "alu":
		return ALU(), true
	case "bus_arb":
		return BusArb(), true
	case "opentitan_mini":
		if buggy {
			return OpenTitanMini(nil), true
		}
		return OpenTitanMini(map[string]bool{}), true
	case "cva6_mini":
		return CVA6Mini(buggy), true
	case "rocket_mini":
		return RocketMini(buggy), true
	case "mor1kx_mini":
		return Mor1kxMini(buggy), true
	}
	for _, ip := range AllIPs() {
		if ip.Name == name {
			return IPBenchmark(ip, buggy), true
		}
	}
	return nil, false
}

// ExternalSignals names the signals the benchmark's bound properties
// observe; they count as read even when nothing in the RTL reads them.
func (b *Benchmark) ExternalSignals() map[string]bool {
	out := map[string]bool{}
	set := map[string]int{}
	for _, p := range b.Properties {
		p.Expr.Signals(set)
		if p.DisableIff != nil {
			p.DisableIff.Signals(set)
		}
	}
	for name := range set {
		out[name] = true
	}
	return out
}

// AllBugs lists every planted SoC bug sorted by ID.
func AllBugs() []Bug {
	var out []Bug
	for _, ip := range AllIPs() {
		out = append(out, ip.Bugs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
