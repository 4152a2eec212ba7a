package simc

import (
	"math"
	"math/bits"
)

// pval is a mutable word-packed four-state value: the evaluation
// currency of the compiled backend. Like logic.BV it carries the VPI
// aval/bval planes (b=0,a=0 -> 0; b=0,a=1 -> 1; b=1,a=0 -> Z;
// b=1,a=1 -> X), LSB-word first, with the invariant that bits above
// width in the top word are always zero. Unlike logic.BV it is
// mutable and preallocated: every wide compiled expression node owns
// one and overwrites it on each evaluation, so steady-state evaluation
// allocates nothing.
type pval struct {
	width int
	mask  uint64 // valid-bit mask of the top word
	a, b  []uint64
}

func pwords(width int) int { return (width + 63) / 64 }

func ptopMask(width int) uint64 {
	r := width % 64
	if r == 0 {
		return ^uint64(0)
	}
	return (uint64(1) << r) - 1
}

func newPval(width int) *pval {
	n := pwords(width)
	return &pval{width: width, mask: ptopMask(width), a: make([]uint64, n), b: make([]uint64, n)}
}

// view builds a pval aliasing existing planes (signal arena slots).
func view(width int, a, b []uint64) *pval {
	return &pval{width: width, mask: ptopMask(width), a: a, b: b}
}

func (p *pval) maskTop() {
	if n := len(p.a); n > 0 {
		p.a[n-1] &= p.mask
		p.b[n-1] &= p.mask
	}
}

// twoState reports whether every bit is a known 0 or 1.
func (p *pval) twoState() bool {
	for _, w := range p.b {
		if w != 0 {
			return false
		}
	}
	return true
}

func (p *pval) setX() {
	for i := range p.a {
		p.a[i] = ^uint64(0)
		p.b[i] = ^uint64(0)
	}
	p.maskTop()
}

func (p *pval) setZero() {
	for i := range p.a {
		p.a[i] = 0
		p.b[i] = 0
	}
}

func (p *pval) setBool(v bool) {
	p.a[0] = 0
	p.b[0] = 0
	if v {
		p.a[0] = 1
	}
}

func (p *pval) setXBit() { p.a[0] = 1; p.b[0] = 1 }

// copyFrom copies same-width o into p.
func (p *pval) copyFrom(o *pval) {
	copy(p.a, o.a)
	copy(p.b, o.b)
}

// eqWords reports exact four-state equality with a same-width value.
func (p *pval) eqWords(o *pval) bool {
	for i := range p.a {
		if p.a[i] != o.a[i] || p.b[i] != o.b[i] {
			return false
		}
	}
	return true
}

// bit returns the (a, b) pair of bit i; out-of-range reads X.
func (p *pval) bit(i int) (a, b uint64) {
	if i < 0 || i >= p.width {
		return 1, 1
	}
	w, s := i/64, uint(i)%64
	return p.a[w] >> s & 1, p.b[w] >> s & 1
}

// setBit writes the (a, b) pair of bit i; out-of-range is a no-op.
func (p *pval) setBit(i int, a, b uint64) {
	if i < 0 || i >= p.width {
		return
	}
	w, s := i/64, uint(i)%64
	p.a[w] = p.a[w]&^(1<<s) | a<<s
	p.b[w] = p.b[w]&^(1<<s) | b<<s
}

// truthy classifies the value as Verilog truth, mirroring
// logic.BV.Truthy: tOne if any bit is a known 1 (wins over unknowns),
// tZero if all bits are known 0, tX otherwise.
const (
	tZero = iota
	tOne
	tX
)

func (p *pval) truthy() int {
	anyOne, anyUnk := false, false
	for i := range p.a {
		if p.a[i]&^p.b[i] != 0 {
			anyOne = true
		}
		if p.b[i] != 0 {
			anyUnk = true
		}
	}
	switch {
	case anyOne:
		return tOne
	case anyUnk:
		return tX
	default:
		return tZero
	}
}

// uint64Val mirrors logic.BV.Uint64: ok is false when any bit is
// unknown or the value does not fit in 64 bits.
func (p *pval) uint64Val() (uint64, bool) {
	if !p.fits64() {
		return 0, false
	}
	return p.shiftAmount()
}

// shiftAmount mirrors logic.BV.ShiftAmount: unknown bits fail, and a
// value of 2^64 or more saturates to math.MaxUint64.
func (p *pval) shiftAmount() (uint64, bool) {
	if !p.twoState() {
		return 0, false
	}
	if !p.fits64() {
		return math.MaxUint64, true
	}
	if len(p.a) == 0 {
		return 0, true
	}
	return p.a[0], true
}

func (p *pval) fits64() bool {
	for i := 1; i < len(p.a); i++ {
		if p.a[i] != 0 {
			return false
		}
	}
	return true
}

// cmpWords compares two same-width fully defined values, big-endian
// word order (mirrors logic.BV.cmp).
func cmpWords(x, y *pval) int {
	for i := len(x.a) - 1; i >= 0; i-- {
		switch {
		case x.a[i] < y.a[i]:
			return -1
		case x.a[i] > y.a[i]:
			return 1
		}
	}
	return 0
}

// ---- operator kernels ----
//
// Each kernel mirrors one logic.BV operator bit-for-bit on values of any
// width. Only nodes wider than one word reach them; word.go holds the
// one-word twins.

func opAnd(dst, x, y *pval) {
	for i := range dst.a {
		one := (x.a[i] &^ x.b[i]) & (y.a[i] &^ y.b[i])
		zero := (^x.a[i] &^ x.b[i]) | (^y.a[i] &^ y.b[i])
		unk := ^(one | zero)
		dst.a[i] = one | unk
		dst.b[i] = unk
	}
	dst.maskTop()
}

func opOr(dst, x, y *pval) {
	for i := range dst.a {
		one := (x.a[i] &^ x.b[i]) | (y.a[i] &^ y.b[i])
		zero := (^x.a[i] &^ x.b[i]) & (^y.a[i] &^ y.b[i])
		unk := ^(one | zero)
		dst.a[i] = one | unk
		dst.b[i] = unk
	}
	dst.maskTop()
}

func opXor(dst, x, y *pval, invert bool) {
	for i := range dst.a {
		unk := x.b[i] | y.b[i]
		v := x.a[i] ^ y.a[i]
		if invert {
			v = ^v
		}
		dst.a[i] = (v &^ unk) | unk
		dst.b[i] = unk
	}
	dst.maskTop()
}

func opNot(dst, x *pval) {
	for i := range dst.a {
		unk := x.b[i]
		dst.a[i] = (^x.a[i] &^ unk) | unk
		dst.b[i] = unk
	}
	dst.maskTop()
}

func opAdd(dst, x, y *pval) {
	if x.twoState() && y.twoState() {
		var carry uint64
		for i := range dst.a {
			s, c := bits.Add64(x.a[i], y.a[i], carry)
			dst.a[i] = s
			dst.b[i] = 0
			carry = c
		}
		dst.maskTop()
		return
	}
	dst.setX()
}

func opSub(dst, x, y *pval) {
	if x.twoState() && y.twoState() {
		var borrow uint64
		for i := range dst.a {
			d, b := bits.Sub64(x.a[i], y.a[i], borrow)
			dst.a[i] = d
			dst.b[i] = 0
			borrow = b
		}
		dst.maskTop()
		return
	}
	dst.setX()
}

func opNeg(dst, x *pval) {
	if x.twoState() {
		var borrow uint64
		for i := range dst.a {
			d, b := bits.Sub64(0, x.a[i], borrow)
			dst.a[i] = d
			dst.b[i] = 0
			borrow = b
		}
		dst.maskTop()
		return
	}
	dst.setX()
}

func opMul(dst, x, y *pval) {
	if !x.twoState() || !y.twoState() {
		dst.setX()
		return
	}
	dst.setZero()
	for i := range x.a {
		if x.a[i] == 0 {
			continue
		}
		var carry uint64
		for j := 0; i+j < len(dst.a); j++ {
			hi, lo := bits.Mul64(x.a[i], y.a[j])
			var c1, c2 uint64
			dst.a[i+j], c1 = bits.Add64(dst.a[i+j], lo, 0)
			dst.a[i+j], c2 = bits.Add64(dst.a[i+j], carry, 0)
			carry = hi + c1 + c2
		}
	}
	dst.maskTop()
}

// opCmp covers Eq/Neq/Lt/Le/Gt/Ge into a 1-bit dst; want/invert
// select the comparison outcome exactly as the logic.BV chains do.
func opEq(dst, x, y *pval, invert bool) {
	if !x.twoState() || !y.twoState() {
		dst.setXBit()
		return
	}
	dst.setBool((cmpWords(x, y) == 0) != invert)
}

func opLt(dst, x, y *pval, orEqual bool) {
	if !x.twoState() || !y.twoState() {
		dst.setXBit()
		return
	}
	c := cmpWords(x, y)
	if orEqual {
		dst.setBool(c <= 0)
	} else {
		dst.setBool(c < 0)
	}
}

func opCaseEq(dst, x, y *pval, invert bool) {
	eq := x.width == y.width && x.eqWords(y)
	dst.setBool(eq != invert)
}

// shiftN shifts both planes by a known amount (0 < n < width),
// mirroring logic.BV.shlN/shrN: Z and X bits travel with the shift and
// vacated positions fill with known 0.
func shiftLeftN(dst, x *pval, n int) {
	ws, bs := n/64, uint(n%64)
	for i := len(dst.a) - 1; i >= 0; i-- {
		var a, b uint64
		if i >= ws {
			a = x.a[i-ws] << bs
			b = x.b[i-ws] << bs
			if bs > 0 && i-ws-1 >= 0 {
				a |= x.a[i-ws-1] >> (64 - bs)
				b |= x.b[i-ws-1] >> (64 - bs)
			}
		}
		dst.a[i] = a
		dst.b[i] = b
	}
	dst.maskTop()
}

func shiftRightN(dst, x *pval, n int) {
	ws, bs := n/64, uint(n%64)
	for i := 0; i < len(dst.a); i++ {
		var a, b uint64
		if i+ws < len(x.a) {
			a = x.a[i+ws] >> bs
			b = x.b[i+ws] >> bs
			if bs > 0 && i+ws+1 < len(x.a) {
				a |= x.a[i+ws+1] << (64 - bs)
				b |= x.b[i+ws+1] << (64 - bs)
			}
		}
		dst.a[i] = a
		dst.b[i] = b
	}
	dst.maskTop()
}

func opShl(dst, x, y *pval) {
	n, ok := y.shiftAmount()
	if !ok {
		dst.setX()
		return
	}
	if n >= uint64(dst.width) {
		dst.setZero()
		return
	}
	shiftLeftN(dst, x, int(n))
}

func opShr(dst, x, y *pval) {
	n, ok := y.shiftAmount()
	if !ok {
		dst.setX()
		return
	}
	if n >= uint64(dst.width) {
		dst.setZero()
		return
	}
	shiftRightN(dst, x, int(n))
}

// opAshr mirrors the interpreter's arithmetic right shift: an unknown
// amount yields all X; otherwise the value shifts right by
// k = min(amount, width) with the vacated top k bits filled with the
// operand's original four-state MSB (a Z sign bit replicates as Z).
func opAshr(dst, x, y *pval) {
	n, ok := y.shiftAmount()
	if !ok {
		dst.setX()
		return
	}
	w := dst.width
	k := int(n)
	if n >= uint64(w) {
		k = w
	}
	msbA, msbB := x.bit(w - 1)
	if k == w {
		for i := 0; i < w; i++ {
			dst.setBit(i, msbA, msbB)
		}
		return
	}
	shiftRightN(dst, x, k)
	for i := w - k; i < w; i++ {
		dst.setBit(i, msbA, msbB)
	}
}

func opLogicalNot(dst, x *pval) {
	switch x.truthy() {
	case tOne:
		dst.setBool(false)
	case tZero:
		dst.setBool(true)
	default:
		dst.setXBit()
	}
}

func opLogicalAnd(dst, x, y *pval) {
	tx, ty := x.truthy(), y.truthy()
	switch {
	case tx == tZero || ty == tZero:
		dst.setBool(false)
	case tx == tOne && ty == tOne:
		dst.setBool(true)
	default:
		dst.setXBit()
	}
}

func opLogicalOr(dst, x, y *pval) {
	tx, ty := x.truthy(), y.truthy()
	switch {
	case tx == tOne || ty == tOne:
		dst.setBool(true)
	case tx == tZero && ty == tZero:
		dst.setBool(false)
	default:
		dst.setXBit()
	}
}

// opReduce covers the six reduction operators into a 1-bit dst.
func opReduceAnd(dst, x *pval, invert bool) {
	anyZero, anyUnk := false, false
	for i := range x.a {
		mask := ^uint64(0)
		if i == len(x.a)-1 {
			mask = x.mask
		}
		if ^x.a[i]&^x.b[i]&mask != 0 {
			anyZero = true
		}
		if x.b[i]&mask != 0 {
			anyUnk = true
		}
	}
	switch {
	case anyZero:
		dst.setBool(invert)
	case anyUnk:
		dst.setXBit()
	default:
		dst.setBool(!invert)
	}
}

func opReduceOr(dst, x *pval, invert bool) {
	anyOne, anyUnk := false, false
	for i := range x.a {
		if x.a[i]&^x.b[i] != 0 {
			anyOne = true
		}
		if x.b[i] != 0 {
			anyUnk = true
		}
	}
	switch {
	case anyOne:
		dst.setBool(!invert)
	case anyUnk:
		dst.setXBit()
	default:
		dst.setBool(invert)
	}
}

func opReduceXor(dst, x *pval, invert bool) {
	if !x.twoState() {
		dst.setXBit()
		return
	}
	parity := 0
	for _, w := range x.a {
		parity ^= bits.OnesCount64(w) & 1
	}
	dst.setBool((parity == 1) != invert)
}

// opMux mirrors logic.Mux: a known condition selects one branch; an
// unknown condition merges — agreeing known bits survive, all others
// become X.
func opMux(dst, c, t, f *pval) {
	switch c.truthy() {
	case tOne:
		dst.copyFrom(t)
		return
	case tZero:
		dst.copyFrom(f)
		return
	}
	for i := range dst.a {
		agree := ^(t.a[i] ^ f.a[i]) &^ t.b[i] &^ f.b[i]
		dst.a[i] = (t.a[i] & agree) | ^agree
		dst.b[i] = ^agree
	}
	dst.maskTop()
}

// opExtract copies x[lo+i] into dst[i] for dst.width bits, with source
// positions outside x reading as X (mirrors logic.BV.Extract).
func opExtract(dst, x *pval, lo int) {
	hi := lo + dst.width - 1
	if lo >= 0 && hi < x.width && lo%64 == 0 {
		// Word-aligned in-range fast shape: straight word copy.
		w := lo / 64
		for i := range dst.a {
			dst.a[i] = x.a[w+i]
			dst.b[i] = x.b[w+i]
		}
		dst.maskTop()
		return
	}
	if lo >= 0 && hi < x.width {
		shiftRightN(dst, x, lo)
		return
	}
	for i := 0; i < dst.width; i++ {
		src := lo + i
		if src >= 0 && src < x.width {
			a, b := x.bit(src)
			dst.setBit(i, a, b)
		} else {
			dst.setBit(i, 1, 1)
		}
	}
}

// opResize zero-extends or truncates x into dst (high bits become
// known 0, mirroring logic.BV.Resize).
func opResize(dst, x *pval) {
	n := len(x.a)
	if n > len(dst.a) {
		n = len(dst.a)
	}
	copy(dst.a, x.a[:n])
	copy(dst.b, x.b[:n])
	for i := n; i < len(dst.a); i++ {
		dst.a[i] = 0
		dst.b[i] = 0
	}
	dst.maskTop()
}

// place copies src into dst at bit offset off (dst must have room).
// Used to build concatenations without per-bit loops.
func place(dst, src *pval, off int) {
	ws, bs := off/64, uint(off%64)
	for i := 0; i < len(src.a); i++ {
		a, b := src.a[i], src.b[i]
		if i == len(src.a)-1 {
			a &= src.mask
			b &= src.mask
		}
		dst.a[ws+i] |= a << bs
		dst.b[ws+i] |= b << bs
		if bs > 0 && ws+i+1 < len(dst.a) {
			dst.a[ws+i+1] |= a >> (64 - bs)
			dst.b[ws+i+1] |= b >> (64 - bs)
		}
	}
}
