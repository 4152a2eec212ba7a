// Package logic implements four-state (0/1/Z/X) logic values and
// bit-vectors with Verilog operator semantics, including X-propagation.
//
// Bit-vectors use the VPI aval/bval encoding: for each bit position the
// pair (a, b) encodes b=0,a=0 -> 0; b=0,a=1 -> 1; b=1,a=0 -> Z;
// b=1,a=1 -> X. All operators treat Z operand bits as X ("unknown"),
// matching simulator behaviour for non-tristate logic.
package logic

import (
	"fmt"
	"math/bits"
	"strings"
)

// Bit is a single four-state logic value.
type Bit uint8

// The four logic states.
const (
	L0 Bit = iota // logic zero
	L1            // logic one
	LZ            // high impedance
	LX            // unknown
)

// String returns the Verilog character for the bit ('0', '1', 'z', 'x').
func (b Bit) String() string {
	switch b {
	case L0:
		return "0"
	case L1:
		return "1"
	case LZ:
		return "z"
	default:
		return "x"
	}
}

// IsKnown reports whether the bit is 0 or 1.
func (b Bit) IsKnown() bool { return b == L0 || b == L1 }

const wordBits = 64

// BV is a four-state bit-vector of fixed width. The zero value is an
// invalid vector; use the constructors. Vectors are immutable:
// operations never modify their operands, and the 1-bit results of
// reductions, logical operators and comparisons are shared values.
type BV struct {
	width int
	a     []uint64 // value plane
	b     []uint64 // unknown plane (1 = X or Z)
}

func words(width int) int { return (width + wordBits - 1) / wordBits }

// topMask returns the mask of valid bits in the last word.
func topMask(width int) uint64 {
	r := width % wordBits
	if r == 0 {
		return ^uint64(0)
	}
	return (uint64(1) << r) - 1
}

func (v BV) mask() BV {
	if v.width%wordBits != 0 && len(v.a) > 0 {
		m := topMask(v.width)
		v.a[len(v.a)-1] &= m
		v.b[len(v.b)-1] &= m
	}
	return v
}

// newRaw returns an all-zero vector. Both planes share one allocation;
// the value plane's capacity ends where the unknown plane begins.
func newRaw(width int) BV {
	n := words(width)
	buf := make([]uint64, 2*n)
	return BV{width: width, a: buf[:n:n], b: buf[n:]}
}

// X returns a vector of the given width with every bit unknown, the
// power-on state of an uninitialized register in four-state simulation.
func X(width int) BV {
	v := newRaw(width)
	for i := range v.a {
		v.a[i] = ^uint64(0)
		v.b[i] = ^uint64(0)
	}
	return v.mask()
}

// Z returns a vector with every bit high-impedance.
func Z(width int) BV {
	v := newRaw(width)
	for i := range v.b {
		v.b[i] = ^uint64(0)
	}
	return v.mask()
}

// Zero returns an all-zero vector of the given width.
func Zero(width int) BV { return newRaw(width) }

// Ones returns an all-ones vector of the given width.
func Ones(width int) BV {
	v := newRaw(width)
	for i := range v.a {
		v.a[i] = ^uint64(0)
	}
	return v.mask()
}

// FromUint64 returns a fully defined vector holding val truncated to width.
func FromUint64(width int, val uint64) BV {
	v := newRaw(width)
	if len(v.a) > 0 {
		v.a[0] = val
	}
	return v.mask()
}

// FromBits builds a vector from bits listed LSB-first.
func FromBits(bs ...Bit) BV {
	v := newRaw(len(bs))
	for i, b := range bs {
		v = v.WithBit(i, b)
	}
	return v
}

// FromString parses a bit pattern written MSB-first using the characters
// 0, 1, x, z and optional underscores, e.g. "10x_z".
func FromString(s string) (BV, error) {
	s = strings.ReplaceAll(s, "_", "")
	if s == "" {
		return BV{}, fmt.Errorf("logic: empty bit string")
	}
	v := newRaw(len(s))
	for i := 0; i < len(s); i++ {
		var bit Bit
		switch s[i] {
		case '0':
			bit = L0
		case '1':
			bit = L1
		case 'x', 'X':
			bit = LX
		case 'z', 'Z', '?':
			bit = LZ
		default:
			return BV{}, fmt.Errorf("logic: invalid bit character %q", s[i])
		}
		v = v.WithBit(len(s)-1-i, bit)
	}
	return v, nil
}

// MustFromString is FromString that panics on error; for tests and tables.
func MustFromString(s string) BV {
	v, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Width returns the number of bits in the vector.
func (v BV) Width() int { return v.width }

// Valid reports whether the vector was properly constructed.
func (v BV) Valid() bool { return v.width > 0 && len(v.a) == words(v.width) }

// Bit returns the four-state value of bit i (LSB = 0).
func (v BV) Bit(i int) Bit {
	if i < 0 || i >= v.width {
		return LX
	}
	a := v.a[i/wordBits] >> (uint(i) % wordBits) & 1
	b := v.b[i/wordBits] >> (uint(i) % wordBits) & 1
	switch {
	case b == 0 && a == 0:
		return L0
	case b == 0 && a == 1:
		return L1
	case b == 1 && a == 0:
		return LZ
	default:
		return LX
	}
}

// WithBit returns a copy of v with bit i set to bit.
func (v BV) WithBit(i int, bit Bit) BV {
	if i < 0 || i >= v.width {
		return v
	}
	out := v.clone()
	w, s := i/wordBits, uint(i)%wordBits
	out.a[w] &^= 1 << s
	out.b[w] &^= 1 << s
	switch bit {
	case L1:
		out.a[w] |= 1 << s
	case LZ:
		out.b[w] |= 1 << s
	case LX:
		out.a[w] |= 1 << s
		out.b[w] |= 1 << s
	}
	return out
}

func (v BV) clone() BV {
	out := newRaw(v.width)
	copy(out.a, v.a)
	copy(out.b, v.b)
	return out
}

// HasUnknown reports whether any bit is X or Z.
func (v BV) HasUnknown() bool {
	for _, w := range v.b {
		if w != 0 {
			return true
		}
	}
	return false
}

// IsFullyDefined reports whether every bit is 0 or 1.
func (v BV) IsFullyDefined() bool { return !v.HasUnknown() }

// IsZero reports whether the vector is fully defined and equal to zero.
func (v BV) IsZero() bool {
	if v.HasUnknown() {
		return false
	}
	for _, w := range v.a {
		if w != 0 {
			return false
		}
	}
	return true
}

// Uint64 returns the value as a uint64. ok is false when any bit is
// unknown or the value does not fit in 64 bits.
func (v BV) Uint64() (val uint64, ok bool) {
	if v.HasUnknown() {
		return 0, false
	}
	for i := 1; i < len(v.a); i++ {
		if v.a[i] != 0 {
			return 0, false
		}
	}
	if len(v.a) == 0 {
		return 0, true
	}
	return v.a[0], true
}

// Eq4 reports exact four-state equality (Verilog ===).
func (v BV) Eq4(o BV) bool {
	if v.width != o.width {
		return false
	}
	for i := range v.a {
		if v.a[i] != o.a[i] || v.b[i] != o.b[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string usable as a map key; equal keys iff Eq4.
func (v BV) Key() string {
	var sb strings.Builder
	sb.Grow(len(v.a)*16 + 4)
	fmt.Fprintf(&sb, "%d:", v.width)
	for i := range v.a {
		fmt.Fprintf(&sb, "%x.%x,", v.a[i], v.b[i])
	}
	return sb.String()
}

// String renders the vector in Verilog style, e.g. "4'b10xz".
func (v BV) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d'b", v.width)
	for i := v.width - 1; i >= 0; i-- {
		sb.WriteString(v.Bit(i).String())
	}
	return sb.String()
}

// BitString renders just the bits MSB-first, e.g. "10xz".
func (v BV) BitString() string {
	var sb strings.Builder
	for i := v.width - 1; i >= 0; i-- {
		sb.WriteString(v.Bit(i).String())
	}
	return sb.String()
}

// ---- bitwise operators ----

func checkSameWidth(x, y BV) {
	if x.width != y.width {
		panic(fmt.Sprintf("logic: width mismatch %d vs %d", x.width, y.width))
	}
}

// And returns bitwise AND with four-state semantics: 0 dominates.
func (v BV) And(o BV) BV {
	checkSameWidth(v, o)
	out := newRaw(v.width)
	for i := range out.a {
		k1x := v.a[i] & ^v.b[i]
		k1y := o.a[i] & ^o.b[i]
		k0x := ^v.a[i] & ^v.b[i]
		k0y := ^o.a[i] & ^o.b[i]
		one := k1x & k1y
		zero := k0x | k0y
		unk := ^(one | zero)
		out.a[i] = one | unk
		out.b[i] = unk
	}
	return out.mask()
}

// Or returns bitwise OR with four-state semantics: 1 dominates.
func (v BV) Or(o BV) BV {
	checkSameWidth(v, o)
	out := newRaw(v.width)
	for i := range out.a {
		k1x := v.a[i] & ^v.b[i]
		k1y := o.a[i] & ^o.b[i]
		k0x := ^v.a[i] & ^v.b[i]
		k0y := ^o.a[i] & ^o.b[i]
		one := k1x | k1y
		zero := k0x & k0y
		unk := ^(one | zero)
		out.a[i] = one | unk
		out.b[i] = unk
	}
	return out.mask()
}

// Xor returns bitwise XOR; any unknown operand bit yields X.
func (v BV) Xor(o BV) BV {
	checkSameWidth(v, o)
	out := newRaw(v.width)
	for i := range out.a {
		unk := v.b[i] | o.b[i]
		out.a[i] = ((v.a[i] ^ o.a[i]) & ^unk) | unk
		out.b[i] = unk
	}
	return out.mask()
}

// Not returns bitwise negation; unknown bits stay X.
func (v BV) Not() BV {
	out := newRaw(v.width)
	for i := range out.a {
		unk := v.b[i]
		out.a[i] = (^v.a[i] & ^unk) | unk
		out.b[i] = unk
	}
	return out.mask()
}

// ---- reductions ----

// ReduceAnd returns the 1-bit AND of all bits.
func (v BV) ReduceAnd() BV {
	anyZero, anyUnk := false, false
	for i := range v.a {
		m := ^uint64(0)
		if i == len(v.a)-1 {
			m = topMask(v.width)
		}
		if (^v.a[i] & ^v.b[i] & m) != 0 {
			anyZero = true
		}
		if v.b[i]&m != 0 {
			anyUnk = true
		}
	}
	switch {
	case anyZero:
		return zero
	case anyUnk:
		return unknown
	default:
		return one
	}
}

// ReduceOr returns the 1-bit OR of all bits.
func (v BV) ReduceOr() BV {
	anyOne, anyUnk := false, false
	for i := range v.a {
		if (v.a[i] & ^v.b[i]) != 0 {
			anyOne = true
		}
		if v.b[i] != 0 {
			anyUnk = true
		}
	}
	switch {
	case anyOne:
		return one
	case anyUnk:
		return unknown
	default:
		return zero
	}
}

// ReduceXor returns the 1-bit XOR (parity) of all bits; X if any unknown.
func (v BV) ReduceXor() BV {
	if v.HasUnknown() {
		return unknown
	}
	parity := 0
	for _, w := range v.a {
		parity ^= bits.OnesCount64(w) & 1
	}
	if parity == 1 {
		return one
	}
	return zero
}

// ---- logical (truthiness) operators ----

// Truthy classifies the vector as Verilog truth: 1 if any bit is a known
// 1, 0 if all bits are known 0, X otherwise.
func (v BV) Truthy() Bit {
	anyOne, anyUnk := false, false
	for i := range v.a {
		if (v.a[i] & ^v.b[i]) != 0 {
			anyOne = true
		}
		if v.b[i] != 0 {
			anyUnk = true
		}
	}
	switch {
	case anyOne:
		return L1
	case anyUnk:
		return LX
	default:
		return L0
	}
}

// one, zero and unknown are the shared 1-bit results (see BV).
var one, zero, unknown = Ones(1), Zero(1), X(1)

func bitToBV(b Bit) BV {
	switch b {
	case L1:
		return one
	case L0:
		return zero
	default:
		return unknown
	}
}

// LogicalNot returns !v as a 1-bit vector.
func (v BV) LogicalNot() BV {
	switch v.Truthy() {
	case L1:
		return zero
	case L0:
		return one
	default:
		return unknown
	}
}

// LogicalAnd returns v && o as a 1-bit vector.
func (v BV) LogicalAnd(o BV) BV {
	x, y := v.Truthy(), o.Truthy()
	switch {
	case x == L0 || y == L0:
		return zero
	case x == L1 && y == L1:
		return one
	default:
		return unknown
	}
}

// LogicalOr returns v || o as a 1-bit vector.
func (v BV) LogicalOr(o BV) BV {
	x, y := v.Truthy(), o.Truthy()
	switch {
	case x == L1 || y == L1:
		return one
	case x == L0 && y == L0:
		return zero
	default:
		return unknown
	}
}

// ---- arithmetic ----

// Add returns v + o (same width, wraparound). Any unknown bit in either
// operand makes the whole result X, matching Verilog arithmetic.
func (v BV) Add(o BV) BV {
	checkSameWidth(v, o)
	if v.HasUnknown() || o.HasUnknown() {
		return X(v.width)
	}
	out := newRaw(v.width)
	var carry uint64
	for i := range out.a {
		s, c1 := bits.Add64(v.a[i], o.a[i], carry)
		out.a[i] = s
		carry = c1
	}
	return out.mask()
}

// Sub returns v - o (same width, wraparound); X-contaminating.
func (v BV) Sub(o BV) BV {
	checkSameWidth(v, o)
	if v.HasUnknown() || o.HasUnknown() {
		return X(v.width)
	}
	out := newRaw(v.width)
	var borrow uint64
	for i := range out.a {
		d, b1 := bits.Sub64(v.a[i], o.a[i], borrow)
		out.a[i] = d
		borrow = b1
	}
	return out.mask()
}

// Neg returns two's-complement negation; X-contaminating.
func (v BV) Neg() BV { return Zero(v.width).Sub(v) }

// Mul returns v * o truncated to the operand width; X-contaminating.
func (v BV) Mul(o BV) BV {
	checkSameWidth(v, o)
	if v.HasUnknown() || o.HasUnknown() {
		return X(v.width)
	}
	out := newRaw(v.width)
	for i := range v.a {
		if v.a[i] == 0 {
			continue
		}
		var carry uint64
		for j := 0; i+j < len(out.a); j++ {
			hi, lo := bits.Mul64(v.a[i], o.a[j])
			var c1, c2 uint64
			out.a[i+j], c1 = bits.Add64(out.a[i+j], lo, 0)
			out.a[i+j], c2 = bits.Add64(out.a[i+j], carry, 0)
			carry = hi + c1 + c2
		}
	}
	return out.mask()
}

// ---- comparisons (unsigned) ----

func (v BV) cmp(o BV) int {
	for i := len(v.a) - 1; i >= 0; i-- {
		switch {
		case v.a[i] < o.a[i]:
			return -1
		case v.a[i] > o.a[i]:
			return 1
		}
	}
	return 0
}

// Eq returns the 1-bit result of v == o; X if either has unknown bits.
func (v BV) Eq(o BV) BV {
	checkSameWidth(v, o)
	if v.HasUnknown() || o.HasUnknown() {
		return unknown
	}
	return bitToBV(boolBit(v.cmp(o) == 0))
}

// Neq returns the 1-bit result of v != o; X if either has unknown bits.
func (v BV) Neq(o BV) BV { return v.Eq(o).LogicalNot() }

// Lt returns the 1-bit result of unsigned v < o; X-contaminating.
func (v BV) Lt(o BV) BV {
	checkSameWidth(v, o)
	if v.HasUnknown() || o.HasUnknown() {
		return unknown
	}
	return bitToBV(boolBit(v.cmp(o) < 0))
}

// Le returns the 1-bit result of unsigned v <= o; X-contaminating.
func (v BV) Le(o BV) BV {
	checkSameWidth(v, o)
	if v.HasUnknown() || o.HasUnknown() {
		return unknown
	}
	return bitToBV(boolBit(v.cmp(o) <= 0))
}

// Gt returns the 1-bit result of unsigned v > o; X-contaminating.
func (v BV) Gt(o BV) BV { return o.Lt(v) }

// Ge returns the 1-bit result of unsigned v >= o; X-contaminating.
func (v BV) Ge(o BV) BV { return o.Le(v) }

func boolBit(b bool) Bit {
	if b {
		return L1
	}
	return L0
}

// ---- shifts ----

// Shl returns v << amount. An unknown amount yields all X.
func (v BV) Shl(amount BV) BV {
	n, ok := amount.Uint64()
	if !ok {
		return X(v.width)
	}
	if n >= uint64(v.width) {
		return Zero(v.width)
	}
	return v.shlN(int(n))
}

func (v BV) shlN(n int) BV {
	out := newRaw(v.width)
	wordShift, bitShift := n/wordBits, uint(n%wordBits)
	for i := len(out.a) - 1; i >= wordShift; i-- {
		out.a[i] = v.a[i-wordShift] << bitShift
		out.b[i] = v.b[i-wordShift] << bitShift
		if bitShift > 0 && i-wordShift-1 >= 0 {
			out.a[i] |= v.a[i-wordShift-1] >> (wordBits - bitShift)
			out.b[i] |= v.b[i-wordShift-1] >> (wordBits - bitShift)
		}
	}
	return out.mask()
}

// Shr returns the logical right shift v >> amount. Unknown amount -> X.
func (v BV) Shr(amount BV) BV {
	n, ok := amount.Uint64()
	if !ok {
		return X(v.width)
	}
	if n >= uint64(v.width) {
		return Zero(v.width)
	}
	return v.shrN(int(n))
}

func (v BV) shrN(n int) BV {
	out := newRaw(v.width)
	wordShift, bitShift := n/wordBits, uint(n%wordBits)
	for i := 0; i+wordShift < len(v.a); i++ {
		out.a[i] = v.a[i+wordShift] >> bitShift
		out.b[i] = v.b[i+wordShift] >> bitShift
		if bitShift > 0 && i+wordShift+1 < len(v.a) {
			out.a[i] |= v.a[i+wordShift+1] << (wordBits - bitShift)
			out.b[i] |= v.b[i+wordShift+1] << (wordBits - bitShift)
		}
	}
	return out.mask()
}

// ---- structural operations ----

// Extract returns bits [hi:lo] as a new vector of width hi-lo+1.
// Out-of-range bits read as X.
func (v BV) Extract(hi, lo int) BV {
	if hi < lo {
		panic(fmt.Sprintf("logic: invalid extract [%d:%d]", hi, lo))
	}
	out := newRaw(hi - lo + 1)
	for i := 0; i < out.width; i++ {
		src := lo + i
		var bit Bit = LX
		if src >= 0 && src < v.width {
			bit = v.Bit(src)
		}
		out = out.WithBit(i, bit)
	}
	return out
}

// Concat returns {v, o} with v in the high bits (Verilog order).
func (v BV) Concat(o BV) BV {
	out := newRaw(v.width + o.width)
	for i := 0; i < o.width; i++ {
		out = out.WithBit(i, o.Bit(i))
	}
	for i := 0; i < v.width; i++ {
		out = out.WithBit(o.width+i, v.Bit(i))
	}
	return out
}

// Repl returns n copies of v concatenated ({n{v}}).
func (v BV) Repl(n int) BV {
	if n <= 0 {
		panic("logic: replication count must be positive")
	}
	out := v
	for i := 1; i < n; i++ {
		out = out.Concat(v)
	}
	return out
}

// Resize zero-extends or truncates to the new width.
func (v BV) Resize(width int) BV {
	if width == v.width {
		return v
	}
	out := newRaw(width)
	n := min(len(out.a), len(v.a))
	copy(out.a, v.a[:n])
	copy(out.b, v.b[:n])
	return out.mask()
}

// SignExtend extends to the new width replicating the MSB.
func (v BV) SignExtend(width int) BV {
	if width <= v.width {
		return v.Resize(width)
	}
	msb := v.Bit(v.width - 1)
	out := v.Resize(width)
	for i := v.width; i < width; i++ {
		out = out.WithBit(i, msb)
	}
	return out
}

// Mux returns t when cond is true, f when false. When cond is unknown the
// result merges t and f bitwise: agreeing bits survive, others become X.
func Mux(cond, t, f BV) BV {
	checkSameWidth(t, f)
	switch cond.Truthy() {
	case L1:
		return t
	case L0:
		return f
	}
	out := newRaw(t.width)
	for i := range out.a {
		agree := ^(t.a[i] ^ f.a[i]) & ^t.b[i] & ^f.b[i]
		out.a[i] = (t.a[i] & agree) | ^agree
		out.b[i] = ^agree
	}
	return out.mask()
}

// FromWords builds a vector of the given width from aval/bval word
// planes listed LSB-word first. The planes are copied and bits beyond
// width are masked off, so the result is independent of the inputs and
// upholds the package invariant that stored vectors carry no garbage in
// the top word. Missing high words read as zero (known 0 bits). This is
// the boundary between the immutable BV world and word-packed state
// arenas (the compiled simulation backend).
func FromWords(width int, a, b []uint64) BV {
	v := newRaw(width)
	copy(v.a, a)
	copy(v.b, b)
	return v.mask()
}

// Words exposes the vector's aval/bval word planes, LSB-word first.
// The returned slices alias the vector's backing store and MUST NOT be
// modified — BV values are shared structurally on the assumption of
// immutability. Intended for bulk state transfer (snapshot packing);
// use FromWords to go the other way.
func (v BV) Words() (a, b []uint64) { return v.a, v.b }

// Rand returns a fully defined random vector using the given source.
func Rand(width int, next func() uint64) BV {
	out := newRaw(width)
	for i := range out.a {
		out.a[i] = next()
	}
	return out.mask()
}
