// Package props implements the SVA-style security-property engine of
// §4.9: properties are boolean expressions over design signals with
// temporal helpers ($past, $stable, $isunknown) and implication (|->),
// sampled every clock cycle by a checker bound to the simulator (the
// UVM monitor role). A property fires a Violation when it evaluates to
// a known 0; unknown (X) results never fire, matching assertion
// semantics in four-state simulation.
package props

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/sim"
)

// Ctx supplies signal values to property evaluation.
type Ctx interface {
	// Val returns the current sampled value of a signal.
	Val(name string) logic.BV
	// PastVal returns the value n cycles ago (X before enough history).
	PastVal(name string, n int) logic.BV
	// Cycle is the current cycle number.
	Cycle() uint64
}

// The 1-bit results evaluation returns. BVs are immutable, so these are
// shared rather than built per evaluation.
var (
	bvOne  = logic.Ones(1)
	bvZero = logic.Zero(1)
	bvX    = logic.X(1)
)

// Expr is a property expression node.
type Expr interface {
	Eval(c Ctx) logic.BV
	// Signals appends the signal names the expression reads.
	Signals(set map[string]int)
	String() string
}

// ---- leaves ----

type sigExpr struct{ name string }

// Sig references a signal by hierarchical name.
func Sig(name string) Expr { return sigExpr{name} }

func (e sigExpr) Eval(c Ctx) logic.BV        { return c.Val(e.name) }
func (e sigExpr) Signals(set map[string]int) { set[e.name] = max(set[e.name], 0) }
func (e sigExpr) String() string             { return e.name }

type constExpr struct{ v logic.BV }

// Const wraps a literal value.
func Const(v logic.BV) Expr { return constExpr{v} }

// U builds a width-bit unsigned constant.
func U(width int, v uint64) Expr { return constExpr{logic.FromUint64(width, v)} }

// B builds a 1-bit constant from a bool.
func B(v bool) Expr {
	if v {
		return constExpr{bvOne}
	}
	return constExpr{bvZero}
}

func (e constExpr) Eval(Ctx) logic.BV      { return e.v }
func (e constExpr) Signals(map[string]int) {}
func (e constExpr) String() string         { return e.v.String() }

// ---- temporal ----

type pastExpr struct {
	name string
	n    int
}

// Past is $past(signal, n): the signal's value n cycles earlier.
func Past(name string, n int) Expr {
	if n <= 0 {
		n = 1
	}
	return pastExpr{name, n}
}

func (e pastExpr) Eval(c Ctx) logic.BV { return c.PastVal(e.name, e.n) }
func (e pastExpr) Signals(set map[string]int) {
	set[e.name] = max(set[e.name], e.n)
}
func (e pastExpr) String() string { return fmt.Sprintf("$past(%s,%d)", e.name, e.n) }

type stableExpr struct{ name string }

// Stable is $stable(signal): current value case-equals the previous one.
func Stable(name string) Expr { return stableExpr{name} }

func (e stableExpr) Eval(c Ctx) logic.BV {
	if c.Val(e.name).Eq4(c.PastVal(e.name, 1)) {
		return bvOne
	}
	return bvZero
}
func (e stableExpr) Signals(set map[string]int) { set[e.name] = max(set[e.name], 1) }
func (e stableExpr) String() string             { return fmt.Sprintf("$stable(%s)", e.name) }

type isUnknownExpr struct{ x Expr }

// IsUnknown is $isunknown(e): 1 when any bit is X or Z.
func IsUnknown(x Expr) Expr { return isUnknownExpr{x} }

func (e isUnknownExpr) Eval(c Ctx) logic.BV {
	if e.x.Eval(c).HasUnknown() {
		return bvOne
	}
	return bvZero
}
func (e isUnknownExpr) Signals(set map[string]int) { e.x.Signals(set) }
func (e isUnknownExpr) String() string             { return fmt.Sprintf("$isunknown(%s)", e.x) }

// ---- operators ----

type binExpr struct {
	op   string
	x, y Expr
}

func bin(op string, x, y Expr) Expr { return binExpr{op, x, y} }

// Eq is x == y (widths are equalized by zero extension).
func Eq(x, y Expr) Expr { return bin("==", x, y) }

// Ne is x != y.
func Ne(x, y Expr) Expr { return bin("!=", x, y) }

// Lt is unsigned x < y.
func Lt(x, y Expr) Expr { return bin("<", x, y) }

// Le is unsigned x <= y.
func Le(x, y Expr) Expr { return bin("<=", x, y) }

// And is logical conjunction.
func And(x, y Expr) Expr { return bin("&&", x, y) }

// Or is logical disjunction.
func Or(x, y Expr) Expr { return bin("||", x, y) }

// BAnd is bitwise conjunction.
func BAnd(x, y Expr) Expr { return bin("&", x, y) }

// BOr is bitwise disjunction.
func BOr(x, y Expr) Expr { return bin("|", x, y) }

// BXor is bitwise exclusive-or.
func BXor(x, y Expr) Expr { return bin("^", x, y) }

// Add is modular addition.
func Add(x, y Expr) Expr { return bin("+", x, y) }

// Sub is modular subtraction.
func Sub(x, y Expr) Expr { return bin("-", x, y) }

func equalize(a, b logic.BV) (logic.BV, logic.BV) {
	w := max(a.Width(), b.Width())
	return a.Resize(w), b.Resize(w)
}

func (e binExpr) Eval(c Ctx) logic.BV {
	a, b := e.x.Eval(c), e.y.Eval(c)
	switch e.op {
	case "&&":
		return a.LogicalAnd(b)
	case "||":
		return a.LogicalOr(b)
	}
	a, b = equalize(a, b)
	switch e.op {
	case "==":
		return a.Eq(b)
	case "!=":
		return a.Neq(b)
	case "<":
		return a.Lt(b)
	case "<=":
		return a.Le(b)
	case "&":
		return a.And(b)
	case "|":
		return a.Or(b)
	case "^":
		return a.Xor(b)
	case "+":
		return a.Add(b)
	case "-":
		return a.Sub(b)
	}
	panic("props: unknown operator " + e.op)
}
func (e binExpr) Signals(set map[string]int) {
	e.x.Signals(set)
	e.y.Signals(set)
}
func (e binExpr) String() string { return fmt.Sprintf("(%s %s %s)", e.x, e.op, e.y) }

type notExpr struct{ x Expr }

// Not is logical negation.
func Not(x Expr) Expr { return notExpr{x} }

func (e notExpr) Eval(c Ctx) logic.BV        { return e.x.Eval(c).LogicalNot() }
func (e notExpr) Signals(set map[string]int) { e.x.Signals(set) }
func (e notExpr) String() string             { return fmt.Sprintf("!%s", e.x) }

type redOrExpr struct{ x Expr }

// RedOr is the |x reduction.
func RedOr(x Expr) Expr { return redOrExpr{x} }

func (e redOrExpr) Eval(c Ctx) logic.BV        { return e.x.Eval(c).ReduceOr() }
func (e redOrExpr) Signals(set map[string]int) { e.x.Signals(set) }
func (e redOrExpr) String() string             { return fmt.Sprintf("(|%s)", e.x) }

type sliceExpr struct {
	x      Expr
	hi, lo int
}

// Slice selects bits [hi:lo] of an expression.
func Slice(x Expr, hi, lo int) Expr { return sliceExpr{x, hi, lo} }

// Index selects bit [i].
func Index(x Expr, i int) Expr { return sliceExpr{x, i, i} }

func (e sliceExpr) Eval(c Ctx) logic.BV        { return e.x.Eval(c).Extract(e.hi, e.lo) }
func (e sliceExpr) Signals(set map[string]int) { e.x.Signals(set) }
func (e sliceExpr) String() string             { return fmt.Sprintf("%s[%d:%d]", e.x, e.hi, e.lo) }

type concatExpr struct{ parts []Expr }

// Concat joins expressions, first part in the MSBs (Verilog {a, b}).
func Concat(parts ...Expr) Expr { return concatExpr{parts} }

func (e concatExpr) Eval(c Ctx) logic.BV {
	out := e.parts[0].Eval(c)
	for _, p := range e.parts[1:] {
		out = out.Concat(p.Eval(c))
	}
	return out
}
func (e concatExpr) Signals(set map[string]int) {
	for _, p := range e.parts {
		p.Signals(set)
	}
}
func (e concatExpr) String() string {
	s := "{"
	for i, p := range e.parts {
		if i > 0 {
			s += ", "
		}
		s += p.String()
	}
	return s + "}"
}

type impliesExpr struct{ a, c Expr }

// Implies is the overlapping implication a |-> c: holds unless a is a
// known 1 and c is a known 0.
func Implies(a, c Expr) Expr { return impliesExpr{a, c} }

func (e impliesExpr) Eval(c Ctx) logic.BV {
	av := e.a.Eval(c).Truthy()
	if av != logic.L1 {
		return bvOne // vacuous (or unknown antecedent)
	}
	cv := e.c.Eval(c).Truthy()
	switch cv {
	case logic.L0:
		return bvZero
	case logic.L1:
		return bvOne
	default:
		return bvX
	}
}
func (e impliesExpr) Signals(set map[string]int) {
	e.a.Signals(set)
	e.c.Signals(set)
}
func (e impliesExpr) String() string { return fmt.Sprintf("(%s |-> %s)", e.a, e.c) }

// IsInside is $isinside: x equals any of the candidates.
func IsInside(x Expr, candidates ...Expr) Expr {
	out := B(false)
	for _, c := range candidates {
		out = Or(out, Eq(x, c))
	}
	return out
}

// ---- property and checker ----

// Property is a named invariant checked every cycle; it fails when the
// expression evaluates to a known 0 while DisableIff (if set) is not 1.
type Property struct {
	Name       string
	Expr       Expr
	DisableIff Expr   // typically reset-asserted
	CWE        string // CWE class for reporting (Table 1)
	// Tags describe how a violation of this property manifests, which
	// determines which detection models can observe it (§5.2): an
	// in-RTL assertion checker (SymbFuzz) sees every violation; a
	// golden-reference differential comparator only sees violations
	// tagged "arch-diff"; an output-monitoring harness only those
	// tagged "output-visible".
	Tags []string
}

// HasTag reports whether the property carries the given tag.
func (p *Property) HasTag(tag string) bool {
	for _, t := range p.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Violation records one failed property evaluation (§4.9: property name
// and timestamp go into the report).
type Violation struct {
	Property string
	CWE      string
	Cycle    uint64
	Detail   string
}

// Checker samples signals each cycle and evaluates properties. It keeps
// a history ring, deep enough for every $past reference, for each
// signal a property reads.
//
// Signal names are resolved once, at AddProperty or Bind: each distinct
// name gets a slot, and every property is evaluated through a copy of
// its expressions whose signal references point at slots. A slot keeps
// the last value read and reuses it while the signal's words are
// unchanged, so reading a signal that holds still copies nothing.
type Checker struct {
	props      []boundProp
	names      map[string]int // signal name -> index into slots
	slots      []slot
	depth      int // length of every history ring (>= 2)
	histPos    int
	histFilled int
	samples    uint64 // Samples so far; stamps history positions
	sim        sim.DUV
	violations []Violation
	// FirstOnly reports each property at most once.
	FirstOnly bool
}

// boundProp is a property with its Expr and DisableIff bound to slots.
type boundProp struct {
	*Property
	expr, disable Expr
	seen          bool // a property of this name has been reported
}

// slot is one signal the checker reads.
type slot struct {
	name  string
	sig   int      // DUV signal index, -1 for a name the design lacks
	width int      // of the signal's values; 1 for a missing name
	cur   logic.BV // last value read
	// The history ring: position pos holds the signal's aval then bval
	// words in words[2*nw*pos:], pushed by Sample number stamp[pos] (0
	// for never). past builds a position's value on its first read and
	// keeps it in built, valid while its stamp is the position's.
	stamp []uint64
	words []uint64
	built []stamped
}

// stamped is a value past built, with the stamp of its position.
type stamped struct {
	stamp uint64
	v     logic.BV
}

// NewChecker builds a checker over the given properties.
func NewChecker(properties ...*Property) *Checker {
	c := &Checker{
		names:     map[string]int{},
		depth:     2,
		FirstOnly: true,
	}
	for _, p := range properties {
		c.AddProperty(p)
	}
	return c
}

// AddProperty registers another property. After Bind it resolves the
// property's new signals against the bound DUV. History restarts
// either way.
func (c *Checker) AddProperty(p *Property) {
	set := map[string]int{}
	p.Expr.Signals(set)
	if p.DisableIff != nil {
		p.DisableIff.Signals(set)
	}
	for name, d := range set {
		if _, ok := c.names[name]; !ok {
			c.names[name] = len(c.slots)
			c.slots = append(c.slots, slot{name: name})
			if c.sim != nil {
				c.resolve(len(c.slots) - 1)
			}
		}
		c.depth = max(c.depth, d+1)
	}
	b := boundProp{Property: p, expr: c.bind(p.Expr)}
	if p.DisableIff != nil {
		b.disable = c.bind(p.DisableIff)
	}
	for _, q := range c.props {
		b.seen = b.seen || q.seen && q.Name == p.Name
	}
	c.props = append(c.props, b)
	// All rings share the global depth so a single write cursor works.
	for i := range c.slots {
		if sl := &c.slots[i]; len(sl.stamp) != c.depth {
			sl.stamp, sl.words, sl.built = make([]uint64, c.depth), nil, nil
		}
	}
	c.histPos = -1
	c.histFilled = 0
}

// bind copies e with every signal reference resolved to its slot.
// Expression types from outside this package stay as they are and
// read through Ctx.
func (c *Checker) bind(e Expr) Expr {
	switch e := e.(type) {
	case sigExpr:
		return slotExpr{e, c, c.names[e.name]}
	case pastExpr:
		return pastSlotExpr{e, c, c.names[e.name]}
	case stableExpr:
		return stableSlotExpr{e, c, c.names[e.name]}
	case isUnknownExpr:
		return isUnknownExpr{c.bind(e.x)}
	case binExpr:
		return binExpr{e.op, c.bind(e.x), c.bind(e.y)}
	case notExpr:
		return notExpr{c.bind(e.x)}
	case redOrExpr:
		return redOrExpr{c.bind(e.x)}
	case sliceExpr:
		return sliceExpr{c.bind(e.x), e.hi, e.lo}
	case concatExpr:
		parts := make([]Expr, len(e.parts))
		for i, p := range e.parts {
			parts[i] = c.bind(p)
		}
		return concatExpr{parts}
	case impliesExpr:
		return impliesExpr{c.bind(e.a), c.bind(e.c)}
	}
	return e
}

// slotExpr, pastSlotExpr and stableSlotExpr are signal references bound
// to a checker slot. They print and list signals like the originals.
type slotExpr struct {
	sigExpr
	c *Checker
	i int
}

func (e slotExpr) Eval(Ctx) logic.BV { return e.c.value(e.i) }

type pastSlotExpr struct {
	pastExpr
	c *Checker
	i int
}

func (e pastSlotExpr) Eval(Ctx) logic.BV { return e.c.past(e.i, e.n) }

type stableSlotExpr struct {
	stableExpr
	c *Checker
	i int
}

func (e stableSlotExpr) Eval(Ctx) logic.BV {
	if e.c.value(e.i).Eq4(e.c.past(e.i, 1)) {
		return bvOne
	}
	return bvZero
}

// Bind attaches the checker to a DUV backend; it samples on every
// cycle.
func (c *Checker) Bind(s sim.DUV) {
	c.sim = s
	for i := range c.slots {
		c.resolve(i)
	}
	s.OnCycle(func(sim.DUV) { c.Sample() })
}

// resolve looks slot i's signal up in the bound DUV.
func (c *Checker) resolve(i int) {
	sl := &c.slots[i]
	sl.sig = c.sim.SignalIndex(sl.name)
	sl.cur, sl.width = logic.BV{}, 1
	if sl.sig < 0 {
		sl.cur = bvX
	} else {
		sl.width = c.sim.Design().Signals[sl.sig].Width
	}
}

// value returns slot i's current value, reusing the last one read
// while the signal's words still equal it.
func (c *Checker) value(i int) logic.BV {
	sl := &c.slots[i]
	if sl.sig >= 0 {
		if a, b := c.sim.Words(sl.sig); !holds(a, b, sl.cur) {
			sl.cur = c.sim.Get(sl.sig)
		}
	}
	return sl.cur
}

// holds reports whether the planes a, b are exactly v's.
func holds(a, b []uint64, v logic.BV) bool {
	va, vb := v.Words()
	if len(va) != len(a) {
		return false
	}
	for i := range a {
		if a[i] != va[i] || b[i] != vb[i] {
			return false
		}
	}
	return true
}

// push records slot i's current words at history position pos.
func (c *Checker) push(i, pos int) {
	sl := &c.slots[i]
	if sl.sig < 0 {
		return
	}
	a, b := c.sim.Words(sl.sig)
	nw := len(a)
	// The words are sized on first use after the ring is (re)made.
	if len(sl.words) != 2*nw*len(sl.stamp) {
		sl.words = make([]uint64, 2*nw*len(sl.stamp))
	}
	sl.stamp[pos] = c.samples
	w := sl.words[2*nw*pos:]
	copy(w[:nw], a)
	copy(w[nw:2*nw], b)
}

// past returns slot i's value n cycles ago (X before enough history).
// A position's value is built on its first read, reusing the last
// value read when the words still equal it.
func (c *Checker) past(i, n int) logic.BV {
	sl := &c.slots[i]
	if sl.sig < 0 || n > len(sl.stamp) || n > c.histFilled {
		return bvX
	}
	pos := ((c.histPos-(n-1))%len(sl.stamp) + len(sl.stamp)) % len(sl.stamp)
	st := sl.stamp[pos]
	if st == 0 {
		return bvX
	}
	if sl.built == nil {
		sl.built = make([]stamped, len(sl.stamp))
	}
	if b := sl.built[pos]; b.stamp == st {
		return b.v
	}
	nw := (sl.width + 63) / 64
	w := sl.words[2*nw*pos:]
	a, b := w[:nw], w[nw:2*nw]
	v := sl.cur
	if !holds(a, b, v) {
		v = logic.FromWords(sl.width, a, b)
	}
	sl.built[pos] = stamped{st, v}
	return v
}

// Val implements Ctx.
func (c *Checker) Val(name string) logic.BV {
	if i, ok := c.names[name]; ok {
		return c.value(i)
	}
	idx := c.sim.SignalIndex(name)
	if idx < 0 {
		return bvX
	}
	return c.sim.Get(idx)
}

// PastVal implements Ctx. PastVal(name, 1) is the value at the previous
// cycle's sample point. History is kept for the signals properties
// read; any other name is X.
func (c *Checker) PastVal(name string, n int) logic.BV {
	i, ok := c.names[name]
	if !ok {
		return bvX
	}
	return c.past(i, n)
}

// Cycle implements Ctx.
func (c *Checker) Cycle() uint64 {
	if c.sim == nil {
		return 0
	}
	return c.sim.Cycle()
}

// Sample evaluates every property against the current state, then
// pushes current values into the history rings.
func (c *Checker) Sample() {
	for i := range c.props {
		p := &c.props[i]
		if c.FirstOnly && p.seen {
			continue
		}
		if p.disable != nil && p.disable.Eval(c).Truthy() == logic.L1 {
			continue
		}
		if p.expr.Eval(c).Truthy() == logic.L0 {
			c.violations = append(c.violations, Violation{
				Property: p.Name,
				CWE:      p.CWE,
				Cycle:    c.Cycle(),
				Detail:   p.Expr.String(),
			})
			for j := range c.props {
				if c.props[j].Name == p.Name {
					c.props[j].seen = true
				}
			}
		}
	}
	c.histPos = (c.histPos + 1 + c.depth) % c.depth
	c.samples++
	for i := range c.slots {
		c.push(i, c.histPos)
	}
	if c.histFilled < c.depth {
		c.histFilled++
	}
}

// Violations returns the recorded violations.
func (c *Checker) Violations() []Violation { return c.violations }

// Reset clears recorded violations and history (used when the fuzzer
// rolls back to a checkpoint).
func (c *Checker) Reset() {
	c.violations = nil
	c.histFilled = 0
	for i := range c.props {
		c.props[i].seen = false
	}
}

// ResetHistory clears only sampled history, keeping found violations.
func (c *Checker) ResetHistory() { c.histFilled = 0 }
