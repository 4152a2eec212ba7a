// Package uvm is a Universal Verification Methodology-style testbench
// framework over the RTL simulator, mirroring the structure of the
// paper's Figure 2: a component tree with build/connect/run phases, a
// Sequencer generating constrained-random sequence items (backed by the
// SMT solver, as SymbFuzz's block 10 injects solved constraints), a
// Driver translating items into DUV pin wiggles, a Monitor sampling
// outputs and evaluating security properties, and a Scoreboard
// collecting observations (with an optional golden-reference comparator
// for the §5.5.3 manufacturing-fault extension).
package uvm

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/smt"
)

// Phase identifies a UVM phase.
type Phase int

// Phases in execution order.
const (
	BuildPhase Phase = iota
	ConnectPhase
	RunPhase
)

// Component is a node in the UVM component tree.
type Component interface {
	Name() string
	// Phase runs one lifecycle phase; errors abort elaboration.
	Phase(p Phase) error
	Children() []Component
}

// BaseComponent provides naming and child management.
type BaseComponent struct {
	name     string
	children []Component
}

// NewBaseComponent names a component.
func NewBaseComponent(name string) BaseComponent { return BaseComponent{name: name} }

// Name returns the component name.
func (b *BaseComponent) Name() string { return b.name }

// Children returns registered child components.
func (b *BaseComponent) Children() []Component { return b.children }

// AddChild registers a child component.
func (b *BaseComponent) AddChild(c Component) { b.children = append(b.children, c) }

// Phase is a no-op by default.
func (b *BaseComponent) Phase(Phase) error { return nil }

// RunPhases walks the tree depth-first for each phase in order.
func RunPhases(root Component) error {
	for _, p := range []Phase{BuildPhase, ConnectPhase} {
		if err := walkPhase(root, p); err != nil {
			return err
		}
	}
	return nil
}

func walkPhase(c Component, p Phase) error {
	if err := c.Phase(p); err != nil {
		return fmt.Errorf("uvm: %s phase %d: %w", c.Name(), p, err)
	}
	for _, ch := range c.Children() {
		if err := walkPhase(ch, p); err != nil {
			return err
		}
	}
	return nil
}

// ---- sequence items ----

// FieldSpec describes one randomizable field of a sequence item,
// typically one DUV input port.
type FieldSpec struct {
	Name  string
	Width int
}

// Field is one stimulus field's value in an item.
type Field struct {
	Name string
	Val  logic.BV
}

// Item is one transaction: a full assignment of the stimulus fields.
type Item struct {
	// Fields is sorted by name, each name once. Set keeps it so; the
	// driver rejects an item built otherwise.
	Fields []Field
	// Hold is how many cycles the driver keeps the item applied.
	Hold int
}

// find returns where name sits, or belongs, in the sorted fields.
func (it *Item) find(name string) (int, bool) {
	return slices.BinarySearchFunc(it.Fields, name, func(f Field, name string) int {
		return strings.Compare(f.Name, name)
	})
}

// Get returns the named field's value.
func (it *Item) Get(name string) (logic.BV, bool) {
	if i, ok := it.find(name); ok {
		return it.Fields[i].Val, true
	}
	return logic.BV{}, false
}

// Set assigns the named field, inserting it in name order when absent.
func (it *Item) Set(name string, v logic.BV) {
	i, ok := it.find(name)
	if ok {
		it.Fields[i].Val = v
		return
	}
	it.Fields = slices.Insert(it.Fields, i, Field{Name: name, Val: v})
}

// Clone copies an item (values are immutable, so they are shared).
func (it *Item) Clone() *Item {
	return &Item{Fields: slices.Clone(it.Fields), Hold: it.Hold}
}

// Key returns a deterministic content key for corpus deduplication.
func (it *Item) Key() string {
	var b strings.Builder
	for _, f := range it.Fields {
		b.WriteString(f.Name)
		b.WriteByte('=')
		b.WriteString(f.Val.Key())
		b.WriteByte(';')
	}
	return b.String()
}

// Constraint builds a 1-bit SMT term over the item fields; the vars map
// provides a solver variable per field (Listing 3's UVM constraints).
type Constraint func(vars map[string]*smt.Term) *smt.Term

// Sequencer generates stimulus items: pure random bit-strings by
// default (§4.8), SMT-constrained randomization when constraints are
// installed, and exact replay when stimuli are pinned (checkpoint
// replay and solver-directed steering).
type Sequencer struct {
	BaseComponent
	// Fields are drawn in this order; fixed once the sequencer is built.
	Fields []FieldSpec
	// slot is each field's position in an item's name-sorted fields,
	// and slots the number of distinct names.
	slot        []int
	slots       int
	rng         *rand.Rand
	constraints []Constraint
	pinned      []*Item // exact next items, FIFO
	// Generated counts items produced (the "# of input vectors" metric).
	Generated uint64
	// Obs receives item-generation telemetry (seq_items counter and
	// constrained-randomization solve latency); nil disables.
	Obs *obs.Observer
}

// NewSequencer builds a sequencer over the given fields.
func NewSequencer(name string, fields []FieldSpec, seed int64) *Sequencer {
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.Name
	}
	slices.Sort(names)
	names = slices.Compact(names)
	slot := make([]int, len(fields))
	for i, f := range fields {
		slot[i], _ = slices.BinarySearch(names, f.Name)
	}
	return &Sequencer{
		BaseComponent: NewBaseComponent(name),
		Fields:        fields,
		slot:          slot,
		slots:         len(names),
		rng:           rand.New(rand.NewSource(seed)),
	}
}

// NewItem builds a one-cycle item holding val(f) for every field,
// calling val in Fields order (a field listed twice keeps its last
// value).
func (s *Sequencer) NewItem(val func(FieldSpec) logic.BV) *Item {
	fields := make([]Field, s.slots)
	for i, f := range s.Fields {
		fields[s.slot[i]] = Field{Name: f.Name, Val: val(f)}
	}
	return &Item{Fields: fields, Hold: 1}
}

// SequencerForDesign derives the stimulus fields from a design's input
// ports, excluding the clock and reset which the harness drives.
func SequencerForDesign(d *elab.Design, exclude map[string]bool, seed int64) *Sequencer {
	var fields []FieldSpec
	for _, in := range d.InputSignals() {
		if exclude[in.Name] {
			continue
		}
		fields = append(fields, FieldSpec{Name: in.Name, Width: in.Width})
	}
	return NewSequencer("sequencer", fields, seed)
}

// AddConstraint installs a constraint applied to every generated item
// until ClearConstraints.
func (s *Sequencer) AddConstraint(c Constraint) { s.constraints = append(s.constraints, c) }

// ClearConstraints removes all installed constraints.
func (s *Sequencer) ClearConstraints() { s.constraints = nil }

// PinNext enqueues an exact item to be returned before any generation.
func (s *Sequencer) PinNext(it *Item) { s.pinned = append(s.pinned, it.Clone()) }

// PendingPinned reports how many exact items are queued.
func (s *Sequencer) PendingPinned() int { return len(s.pinned) }

// ClearPinned drops queued exact items (stale plans after a rollback).
func (s *Sequencer) ClearPinned() { s.pinned = nil }

// NextItem produces the next stimulus item.
func (s *Sequencer) NextItem() *Item {
	s.Generated++
	s.Obs.SeqItem()
	if len(s.pinned) > 0 {
		it := s.pinned[0]
		s.pinned = s.pinned[1:]
		return it
	}
	if len(s.constraints) == 0 {
		return s.randomItem()
	}
	if it := s.solveItem(); it != nil {
		return it
	}
	// Unsatisfiable constraints: fall back to random stimulus so the
	// fuzzing loop never stalls.
	return s.randomItem()
}

func (s *Sequencer) randomItem() *Item {
	return s.NewItem(func(f FieldSpec) logic.BV { return logic.Rand(f.Width, s.rng.Uint64) })
}

// solveItem runs the SMT solver with random decision polarity so that
// repeated calls explore diverse solutions of the same constraints.
func (s *Sequencer) solveItem() *Item {
	if s.Obs != nil {
		start := time.Now()
		defer func() { s.Obs.SeqSolve(int64(time.Since(start))) }()
	}
	sol := smt.NewSolver()
	sol.SetRand(rand.New(rand.NewSource(s.rng.Int63())))
	vars := map[string]*smt.Term{}
	for _, f := range s.Fields {
		vars[f.Name] = sol.Var(f.Name, f.Width)
	}
	for _, c := range s.constraints {
		sol.Assert(c(vars))
	}
	if sol.Solve() != smt.Sat {
		return nil
	}
	m := sol.Model()
	return s.NewItem(func(f FieldSpec) logic.BV {
		if v, ok := m[f.Name]; ok {
			return v
		}
		return logic.Rand(f.Width, s.rng.Uint64)
	})
}

// Mutate flips a random number of bits in a parent item, the
// mutation-based half of seed generation (§4.8).
func (s *Sequencer) Mutate(parent *Item) *Item {
	it := parent.Clone()
	if len(s.Fields) == 0 {
		return it
	}
	flips := 1 + s.rng.Intn(4)
	for i := 0; i < flips; i++ {
		f := s.Fields[s.rng.Intn(len(s.Fields))]
		v, _ := it.Get(f.Name)
		if !v.Valid() {
			v = logic.Rand(f.Width, s.rng.Uint64)
		}
		bit := s.rng.Intn(f.Width)
		if v.Bit(bit) == logic.L1 {
			it.Set(f.Name, v.WithBit(bit, logic.L0))
		} else {
			it.Set(f.Name, v.WithBit(bit, logic.L1))
		}
	}
	return it
}
