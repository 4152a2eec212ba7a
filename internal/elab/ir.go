// Package elab elaborates a parsed HDL source into a flat, executable
// design model: hierarchy is flattened, parameters and enums resolved,
// for-loops unrolled, and expressions compiled into a width-resolved IR
// that the simulator evaluates directly.
//
// Every if- and case-statement in the compiled IR carries a unique branch
// ID and reports the arm it takes through the Tracer, which is what the
// coverage monitors (mux coverage for RFuzz, edge coverage for SymbFuzz)
// consume.
package elab

import (
	"fmt"

	"repro/internal/hdl"
	"repro/internal/logic"
)

// SignalKind classifies a flattened signal.
type SignalKind int

// Signal kinds.
const (
	SigInput    SignalKind = iota // top-level input port
	SigOutput                     // top-level output port
	SigInternal                   // internal wire/variable
)

// Signal is one flattened scalar or vector signal.
type Signal struct {
	Index  int    // position in the value store
	Name   string // hierarchical name, e.g. "u_aes.state_q"
	Width  int
	Kind   SignalKind
	IsReg  bool // written by a sequential (always_ff) process
	EnumTy string
	// Enum value names by numeric value, for diagnostics (may be nil).
	EnumNames map[uint64]string
	// Init is an optional declaration initializer applied at time zero.
	Init *logic.BV
	// Pos is the source position of the declaration.
	Pos hdl.Pos
}

// Memory is an unpacked array (register file / RAM).
type Memory struct {
	Index int
	Name  string
	Width int
	Depth int
}

// ClockEdge is one entry of a sequential sensitivity list.
type ClockEdge struct {
	Signal  int
	Posedge bool
}

// ProcessKind distinguishes combinational from clocked processes.
type ProcessKind int

// Process kinds.
const (
	ProcComb ProcessKind = iota
	ProcSeq
)

// Process is a compiled always block or continuous assignment.
type Process struct {
	Index  int
	Name   string // diagnostic label
	Kind   ProcessKind
	Edges  []ClockEdge
	Body   []Stmt
	Reads  []int // signal indices read (sensitivity for comb)
	Writes []int // signal indices written
	// MemReads lists memories read, so combinational readers re-run
	// when a memory word changes.
	MemReads []int
}

// Design is the elaborated, flattened model.
type Design struct {
	Name     string
	Top      string
	Signals  []*Signal
	ByName   map[string]*Signal
	Memories []*Memory
	Procs    []*Process
	// Branches counts the if/case decision points instrumented in the
	// IR; branch IDs are 0..Branches-1.
	Branches int
	// BranchInfo[id] describes the decision point for reporting.
	BranchInfo []BranchInfo
	// SourceLoC is the line count of the HDL source (Table 3).
	SourceLoC int
}

// BranchInfo describes one instrumented decision point.
type BranchInfo struct {
	ID    int
	Where string // hierarchical process name + position
	Kind  string // "if" or "case"
	Arms  int    // number of outcomes (2 for if, len(items)+1 for case)
	// CondSignals are the signals the branch condition reads.
	CondSignals []int
	// Proc is the index of the process containing the branch.
	Proc int
	// Pos is the source position of the if/case statement.
	Pos hdl.Pos
}

// InputSignals returns the top-level input ports in declaration order.
func (d *Design) InputSignals() []*Signal {
	var out []*Signal
	for _, s := range d.Signals {
		if s.Kind == SigInput {
			out = append(out, s)
		}
	}
	return out
}

// OutputSignals returns the top-level output ports in declaration order.
func (d *Design) OutputSignals() []*Signal {
	var out []*Signal
	for _, s := range d.Signals {
		if s.Kind == SigOutput {
			out = append(out, s)
		}
	}
	return out
}

// Registers returns the sequential state-holding signals.
func (d *Design) Registers() []*Signal {
	var out []*Signal
	for _, s := range d.Signals {
		if s.IsReg {
			out = append(out, s)
		}
	}
	return out
}

// TotalInputWidth sums the widths of all input ports.
func (d *Design) TotalInputWidth() int {
	n := 0
	for _, s := range d.InputSignals() {
		n += s.Width
	}
	return n
}

// ---- runtime interfaces ----

// Store is the value environment an expression evaluates against. The
// simulator provides the implementation.
type Store interface {
	Get(sig int) logic.BV
	GetMem(mem int, addr uint64) logic.BV
}

// Tracer receives branch-arm events during statement execution. arm is
// the 0-based outcome index (if: 0 = taken, 1 = not taken; case: item
// index, last = default/no-match).
type Tracer interface {
	Branch(id, arm int)
}

// Sink receives assignment results during statement execution.
type Sink interface {
	Store
	Tracer
	Set(sig int, v logic.BV)   // blocking write
	SetNB(sig int, v logic.BV) // non-blocking (deferred) write
	SetMem(mem int, addr uint64, v logic.BV)
	SetMemNB(mem int, addr uint64, v logic.BV)
}

// ---- expression IR ----

// Expr is a compiled, width-resolved expression.
type Expr interface {
	Eval(st Store) logic.BV
	Width() int
}

// Const is a literal value.
type Const struct{ V logic.BV }

// Eval returns the constant.
func (e Const) Eval(Store) logic.BV { return e.V }

// Width returns the constant's width.
func (e Const) Width() int { return e.V.Width() }

// Sig reads a signal.
type Sig struct {
	Idx int
	W   int
}

// Eval reads the signal from the store.
func (e Sig) Eval(st Store) logic.BV { return st.Get(e.Idx) }

// Width returns the signal width.
func (e Sig) Width() int { return e.W }

// BinOp identifies a binary operation.
type BinOp int

// Binary operations.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpXnor
	OpEq
	OpNeq
	OpCaseEq
	OpCaseNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpShl
	OpShr
	OpAshr
	OpLAnd
	OpLOr
)

// Bin applies a binary operation; operands are pre-resized by the compiler.
type Bin struct {
	Op   BinOp
	X, Y Expr
	W    int
}

// Eval applies the operation with four-state semantics.
func (e Bin) Eval(st Store) logic.BV {
	x := e.X.Eval(st)
	y := e.Y.Eval(st)
	switch e.Op {
	case OpAdd:
		return x.Add(y)
	case OpSub:
		return x.Sub(y)
	case OpMul:
		return x.Mul(y)
	case OpAnd:
		return x.And(y)
	case OpOr:
		return x.Or(y)
	case OpXor:
		return x.Xor(y)
	case OpXnor:
		return x.Xor(y).Not()
	case OpEq:
		return x.Eq(y)
	case OpNeq:
		return x.Neq(y)
	case OpCaseEq:
		if x.Eq4(y) {
			return logic.Ones(1)
		}
		return logic.Zero(1)
	case OpCaseNeq:
		if x.Eq4(y) {
			return logic.Zero(1)
		}
		return logic.Ones(1)
	case OpLt:
		return x.Lt(y)
	case OpLe:
		return x.Le(y)
	case OpGt:
		return x.Gt(y)
	case OpGe:
		return x.Ge(y)
	case OpShl:
		return x.Shl(y)
	case OpShr:
		return x.Shr(y)
	case OpAshr:
		// Arithmetic right shift on the operand's width.
		n, ok := y.ShiftAmount()
		if !ok {
			return logic.X(x.Width())
		}
		out := x
		for i := uint64(0); i < n && i < uint64(x.Width()); i++ {
			out = out.Shr(logic.FromUint64(8, 1)).WithBit(x.Width()-1, x.Bit(x.Width()-1))
		}
		return out
	case OpLAnd:
		return x.LogicalAnd(y)
	case OpLOr:
		return x.LogicalOr(y)
	}
	panic(fmt.Sprintf("elab: unknown binop %d", e.Op))
}

// Width returns the result width.
func (e Bin) Width() int { return e.W }

// UnOp identifies a unary operation.
type UnOp int

// Unary operations.
const (
	OpNot  UnOp = iota // ~
	OpLNot             // !
	OpNeg              // -
	OpRedAnd
	OpRedOr
	OpRedXor
	OpRedNand
	OpRedNor
	OpRedXnor
)

// Un applies a unary operation.
type Un struct {
	Op UnOp
	X  Expr
	W  int
}

// Eval applies the operation.
func (e Un) Eval(st Store) logic.BV {
	x := e.X.Eval(st)
	switch e.Op {
	case OpNot:
		return x.Not()
	case OpLNot:
		return x.LogicalNot()
	case OpNeg:
		return x.Neg()
	case OpRedAnd:
		return x.ReduceAnd()
	case OpRedOr:
		return x.ReduceOr()
	case OpRedXor:
		return x.ReduceXor()
	case OpRedNand:
		return x.ReduceAnd().Not()
	case OpRedNor:
		return x.ReduceOr().Not()
	case OpRedXnor:
		return x.ReduceXor().Not()
	}
	panic(fmt.Sprintf("elab: unknown unop %d", e.Op))
}

// Width returns the result width.
func (e Un) Width() int { return e.W }

// Cond is the ternary operator with X-merge semantics.
type Cond struct {
	C, T, F Expr
	W       int
}

// Eval selects or merges the branches.
func (e Cond) Eval(st Store) logic.BV {
	return logic.Mux(e.C.Eval(st), e.T.Eval(st), e.F.Eval(st))
}

// Width returns the result width.
func (e Cond) Width() int { return e.W }

// CatE concatenates parts, first part in the high bits.
type CatE struct {
	Parts []Expr
	W     int
}

// Eval concatenates the evaluated parts.
func (e CatE) Eval(st Store) logic.BV {
	out := e.Parts[0].Eval(st)
	for _, p := range e.Parts[1:] {
		out = out.Concat(p.Eval(st))
	}
	return out
}

// Width returns the total width.
func (e CatE) Width() int { return e.W }

// Slice extracts constant bit range [Hi:Lo] of X.
type Slice struct {
	X      Expr
	Hi, Lo int
}

// Eval extracts the bits.
func (e Slice) Eval(st Store) logic.BV { return e.X.Eval(st).Extract(e.Hi, e.Lo) }

// Width returns Hi-Lo+1.
func (e Slice) Width() int { return e.Hi - e.Lo + 1 }

// BitSel selects a dynamically indexed bit (1-bit result).
type BitSel struct {
	X   Expr
	Idx Expr
}

// Eval selects the bit; an unknown or out-of-range index yields X.
func (e BitSel) Eval(st Store) logic.BV {
	x := e.X.Eval(st)
	i, ok := e.Idx.Eval(st).Uint64()
	if !ok || i >= uint64(x.Width()) {
		return logic.X(1)
	}
	return x.Extract(int(i), int(i))
}

// Width returns 1.
func (e BitSel) Width() int { return 1 }

// DynSlice is an indexed part-select x[start +: w] with dynamic start.
type DynSlice struct {
	X     Expr
	Start Expr
	W     int
}

// Eval shifts and truncates; unknown start yields all X.
func (e DynSlice) Eval(st Store) logic.BV {
	x := e.X.Eval(st)
	s, ok := e.Start.Eval(st).Uint64()
	if !ok {
		return logic.X(e.W)
	}
	out := logic.Zero(e.W)
	for i := 0; i < e.W; i++ {
		src := int(s) + i
		if src < x.Width() {
			out = out.WithBit(i, x.Bit(src))
		} else {
			out = out.WithBit(i, logic.LX)
		}
	}
	return out
}

// Width returns the slice width.
func (e DynSlice) Width() int { return e.W }

// ZExt zero-extends or truncates X to W bits.
type ZExt struct {
	X Expr
	W int
}

// Eval resizes the operand.
func (e ZExt) Eval(st Store) logic.BV { return e.X.Eval(st).Resize(e.W) }

// Width returns the target width.
func (e ZExt) Width() int { return e.W }

// MemRead reads Mem[Addr].
type MemRead struct {
	Mem   int
	Addr  Expr
	W     int
	Depth int
}

// Eval reads the memory word; unknown/out-of-range address yields X.
func (e MemRead) Eval(st Store) logic.BV {
	a, ok := e.Addr.Eval(st).Uint64()
	if !ok || a >= uint64(e.Depth) {
		return logic.X(e.W)
	}
	return st.GetMem(e.Mem, a)
}

// Width returns the word width.
func (e MemRead) Width() int { return e.W }

// ---- statement IR ----

// Stmt is a compiled procedural statement.
type Stmt interface {
	Exec(s Sink)
}

// Target is an assignment destination.
type Target interface {
	// Assign writes v into the target; nb selects non-blocking.
	Assign(s Sink, v logic.BV, nb bool)
	// TWidth is the number of bits the target consumes.
	TWidth() int
	// SignalIdx returns the root signal index, or -1 for memories.
	SignalIdx() int
}

// TSig assigns a whole signal.
type TSig struct {
	Idx int
	W   int
}

// Assign writes the full signal.
func (t TSig) Assign(s Sink, v logic.BV, nb bool) {
	v = v.Resize(t.W)
	if nb {
		s.SetNB(t.Idx, v)
	} else {
		s.Set(t.Idx, v)
	}
}

// TWidth returns the signal width.
func (t TSig) TWidth() int { return t.W }

// SignalIdx returns the signal index.
func (t TSig) SignalIdx() int { return t.Idx }

// TRange assigns a constant bit range of a signal (read-modify-write).
type TRange struct {
	Idx    int
	W      int // full signal width
	Hi, Lo int
}

// Assign merges the value into bits [Hi:Lo].
func (t TRange) Assign(s Sink, v logic.BV, nb bool) {
	cur := s.Get(t.Idx)
	v = v.Resize(t.Hi - t.Lo + 1)
	out := cur
	for i := t.Lo; i <= t.Hi && i < t.W; i++ {
		out = out.WithBit(i, v.Bit(i-t.Lo))
	}
	if nb {
		s.SetNB(t.Idx, out)
	} else {
		s.Set(t.Idx, out)
	}
}

// TWidth returns the range width.
func (t TRange) TWidth() int { return t.Hi - t.Lo + 1 }

// SignalIdx returns the signal index.
func (t TRange) SignalIdx() int { return t.Idx }

// TBit assigns a dynamically indexed bit.
type TBit struct {
	Idx  int
	W    int
	BitE Expr
}

// Assign writes one bit; unknown index drops the write.
func (t TBit) Assign(s Sink, v logic.BV, nb bool) {
	i, ok := t.BitE.Eval(s).Uint64()
	if !ok || i >= uint64(t.W) {
		return
	}
	cur := s.Get(t.Idx)
	out := cur.WithBit(int(i), v.Resize(1).Bit(0))
	if nb {
		s.SetNB(t.Idx, out)
	} else {
		s.Set(t.Idx, out)
	}
}

// TWidth returns 1.
func (t TBit) TWidth() int { return 1 }

// SignalIdx returns the signal index.
func (t TBit) SignalIdx() int { return t.Idx }

// TCat distributes the value across concatenated targets (left = MSBs).
type TCat struct {
	Parts []Target
	W     int
}

// Assign splits the value MSB-first across the parts.
func (t TCat) Assign(s Sink, v logic.BV, nb bool) {
	v = v.Resize(t.W)
	hi := t.W - 1
	for _, p := range t.Parts {
		lo := hi - p.TWidth() + 1
		p.Assign(s, v.Extract(hi, lo), nb)
		hi = lo - 1
	}
}

// TWidth returns the total width.
func (t TCat) TWidth() int { return t.W }

// SignalIdx returns -1 (no single root signal).
func (t TCat) SignalIdx() int { return -1 }

// TMem assigns a memory word.
type TMem struct {
	Mem   int
	W     int
	Depth int
	Addr  Expr
}

// Assign writes the word; unknown/out-of-range address drops the write.
func (t TMem) Assign(s Sink, v logic.BV, nb bool) {
	a, ok := t.Addr.Eval(s).Uint64()
	if !ok || a >= uint64(t.Depth) {
		return
	}
	v = v.Resize(t.W)
	if nb {
		s.SetMemNB(t.Mem, a, v)
	} else {
		s.SetMem(t.Mem, a, v)
	}
}

// TWidth returns the word width.
func (t TMem) TWidth() int { return t.W }

// SignalIdx returns -1.
func (t TMem) SignalIdx() int { return -1 }

// SAssign executes an assignment.
type SAssign struct {
	LHS Target
	RHS Expr
	NB  bool
	// Pos is the source position of the assignment (zero for synthesized
	// continuous assigns such as port connections).
	Pos hdl.Pos
}

// Exec evaluates the RHS and assigns it.
func (s SAssign) Exec(k Sink) { s.LHS.Assign(k, s.RHS.Eval(k), s.NB) }

// SIf is a two-arm branch with a branch ID for coverage.
type SIf struct {
	BranchID int
	Cond     Expr
	Then     []Stmt
	Else     []Stmt
}

// Exec evaluates the condition; an unknown condition executes neither arm
// and reports arm 2 ("X") to the tracer.
func (s SIf) Exec(k Sink) {
	switch s.Cond.Eval(k).Truthy() {
	case logic.L1:
		k.Branch(s.BranchID, 0)
		for _, st := range s.Then {
			st.Exec(k)
		}
	case logic.L0:
		k.Branch(s.BranchID, 1)
		for _, st := range s.Else {
			st.Exec(k)
		}
	default:
		k.Branch(s.BranchID, 2)
	}
}

// SCaseItem is one compiled case arm.
type SCaseItem struct {
	Matches []Expr // nil for default
	Body    []Stmt
}

// SCase is a case statement with a branch ID; the default (or no-match)
// outcome is reported as arm len(Items).
type SCase struct {
	BranchID int
	Subject  Expr
	Items    []SCaseItem
	Default  []Stmt
}

// Exec selects the first matching arm (Verilog case equality on known
// bits; an X subject matches nothing and falls to default).
func (s SCase) Exec(k Sink) {
	subj := s.Subject.Eval(k)
	for i, item := range s.Items {
		for _, m := range item.Matches {
			mv := m.Eval(k)
			if subj.Eq4(mv.Resize(subj.Width())) ||
				(subj.IsFullyDefined() && mv.IsFullyDefined() && subj.Eq(mv.Resize(subj.Width())).Truthy() == logic.L1) {
				k.Branch(s.BranchID, i)
				for _, st := range item.Body {
					st.Exec(k)
				}
				return
			}
		}
	}
	k.Branch(s.BranchID, len(s.Items))
	for _, st := range s.Default {
		st.Exec(k)
	}
}
