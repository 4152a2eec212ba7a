package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitString(t *testing.T) {
	cases := []struct {
		b    Bit
		want string
	}{{L0, "0"}, {L1, "1"}, {LZ, "z"}, {LX, "x"}}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("Bit(%d).String() = %q, want %q", c.b, got, c.want)
		}
	}
}

func TestConstructors(t *testing.T) {
	if v := Zero(8); !v.IsZero() || v.Width() != 8 {
		t.Errorf("Zero(8) = %v", v)
	}
	if v := Ones(8); v.BitString() != "11111111" {
		t.Errorf("Ones(8) = %v", v)
	}
	if v := X(4); v.BitString() != "xxxx" {
		t.Errorf("X(4) = %v", v)
	}
	if v := Z(4); v.BitString() != "zzzz" {
		t.Errorf("Z(4) = %v", v)
	}
	if v := FromUint64(8, 0xA5); v.BitString() != "10100101" {
		t.Errorf("FromUint64(8, 0xA5) = %v", v)
	}
	// truncation
	if v := FromUint64(4, 0xFF); v.BitString() != "1111" {
		t.Errorf("FromUint64(4, 0xFF) = %v", v)
	}
}

func TestFromString(t *testing.T) {
	v, err := FromString("10xz")
	if err != nil {
		t.Fatal(err)
	}
	if v.Width() != 4 {
		t.Fatalf("width = %d", v.Width())
	}
	if v.Bit(3) != L1 || v.Bit(2) != L0 || v.Bit(1) != LX || v.Bit(0) != LZ {
		t.Errorf("bits wrong: %v", v)
	}
	if v.String() != "4'b10xz" {
		t.Errorf("String() = %q", v.String())
	}
	if _, err := FromString(""); err == nil {
		t.Error("empty string should error")
	}
	if _, err := FromString("102"); err == nil {
		t.Error("invalid char should error")
	}
	if v := MustFromString("1_0"); v.Width() != 2 {
		t.Errorf("underscore not stripped: %v", v)
	}
}

func TestWideVectors(t *testing.T) {
	v := Ones(130)
	if v.Width() != 130 || v.BitString()[0] != '1' {
		t.Fatalf("Ones(130) = %v", v)
	}
	if !v.Not().IsZero() {
		t.Error("Not(Ones) should be zero")
	}
	u, ok := Ones(130).Uint64()
	if ok {
		t.Errorf("130-bit ones should not fit uint64, got %d", u)
	}
	w := FromUint64(130, 42)
	if u, ok := w.Uint64(); !ok || u != 42 {
		t.Errorf("Uint64 = %d, %v", u, ok)
	}
	// shift across word boundary
	one := Zero(130).WithBit(0, L1)
	sh := one.Shl(FromUint64(8, 100))
	if sh.Bit(100) != L1 {
		t.Errorf("Shl 100: bit 100 = %v", sh.Bit(100))
	}
	back := sh.Shr(FromUint64(8, 100))
	if !back.Eq4(one) {
		t.Errorf("Shr round-trip failed: %v", back)
	}
}

func TestAndOrTruthTables(t *testing.T) {
	b := func(s string) BV { return MustFromString(s) }
	// per-bit: operands 0,1,x,z in all combinations
	x := b("01xz01xz01xz01xz")
	y := b("00001111xxxxzzzz")
	wantAnd := "000001xx0xxx0xxx"
	wantOr := "01xx1111x1xxx1xx"
	wantXor := "01xx10xxxxxxxxxx"
	if got := x.And(y).BitString(); got != wantAnd {
		t.Errorf("And = %s, want %s", got, wantAnd)
	}
	if got := x.Or(y).BitString(); got != wantOr {
		t.Errorf("Or = %s, want %s", got, wantOr)
	}
	if got := x.Xor(y).BitString(); got != wantXor {
		t.Errorf("Xor = %s, want %s", got, wantXor)
	}
	if got := b("01xz").Not().BitString(); got != "10xx" {
		t.Errorf("Not = %s, want 10xx", got)
	}
}

func TestReductions(t *testing.T) {
	cases := []struct {
		in           string
		and, or, xor string
	}{
		{"1111", "1", "1", "0"},
		{"1101", "0", "1", "1"},
		{"0000", "0", "0", "0"},
		{"11x1", "x", "1", "x"},
		{"00x0", "0", "x", "x"},
		{"zzzz", "x", "x", "x"},
	}
	for _, c := range cases {
		v := MustFromString(c.in)
		if got := v.ReduceAnd().BitString(); got != c.and {
			t.Errorf("ReduceAnd(%s) = %s, want %s", c.in, got, c.and)
		}
		if got := v.ReduceOr().BitString(); got != c.or {
			t.Errorf("ReduceOr(%s) = %s, want %s", c.in, got, c.or)
		}
		if got := v.ReduceXor().BitString(); got != c.xor {
			t.Errorf("ReduceXor(%s) = %s, want %s", c.in, got, c.xor)
		}
	}
}

func TestLogicalOps(t *testing.T) {
	one, zero, x := Ones(4), Zero(4), X(4)
	if one.LogicalAnd(zero).Truthy() != L0 {
		t.Error("1 && 0 != 0")
	}
	if one.LogicalAnd(one).Truthy() != L1 {
		t.Error("1 && 1 != 1")
	}
	if zero.LogicalAnd(x).Truthy() != L0 {
		t.Error("0 && x != 0 (short circuit)")
	}
	if one.LogicalAnd(x).Truthy() != LX {
		t.Error("1 && x != x")
	}
	if one.LogicalOr(x).Truthy() != L1 {
		t.Error("1 || x != 1 (short circuit)")
	}
	if zero.LogicalOr(x).Truthy() != LX {
		t.Error("0 || x != x")
	}
	if zero.LogicalNot().Truthy() != L1 {
		t.Error("!0 != 1")
	}
	if x.LogicalNot().Truthy() != LX {
		t.Error("!x != x")
	}
	// partial X is truthy when any known 1 present
	if MustFromString("1x").Truthy() != L1 {
		t.Error("Truthy(1x) != 1")
	}
	if MustFromString("0x").Truthy() != LX {
		t.Error("Truthy(0x) != x")
	}
}

func TestArithmetic(t *testing.T) {
	a, b := FromUint64(8, 200), FromUint64(8, 100)
	if got, _ := a.Add(b).Uint64(); got != 44 { // wraps mod 256
		t.Errorf("200+100 mod 256 = %d, want 44", got)
	}
	if got, _ := a.Sub(b).Uint64(); got != 100 {
		t.Errorf("200-100 = %d", got)
	}
	if got, _ := b.Sub(a).Uint64(); got != 156 { // wraps
		t.Errorf("100-200 mod 256 = %d, want 156", got)
	}
	if got, _ := FromUint64(8, 13).Mul(FromUint64(8, 11)).Uint64(); got != 143 {
		t.Errorf("13*11 = %d", got)
	}
	if got, _ := FromUint64(8, 100).Mul(FromUint64(8, 100)).Uint64(); got != 16 { // 10000 mod 256
		t.Errorf("100*100 mod 256 = %d, want 16", got)
	}
	if got, _ := FromUint64(8, 5).Neg().Uint64(); got != 251 {
		t.Errorf("-5 mod 256 = %d, want 251", got)
	}
	// X contamination
	xv := X(8)
	if !a.Add(xv).HasUnknown() || !a.Mul(xv).HasUnknown() {
		t.Error("arithmetic with X must yield X")
	}
}

func TestComparisons(t *testing.T) {
	a, b := FromUint64(8, 5), FromUint64(8, 9)
	checks := []struct {
		name string
		got  BV
		want Bit
	}{
		{"5==9", a.Eq(b), L0},
		{"5==5", a.Eq(a), L1},
		{"5!=9", a.Neq(b), L1},
		{"5<9", a.Lt(b), L1},
		{"9<5", b.Lt(a), L0},
		{"5<=5", a.Le(a), L1},
		{"9>5", b.Gt(a), L1},
		{"5>=9", a.Ge(b), L0},
		{"x==5", X(8).Eq(a), LX},
		{"x<5", X(8).Lt(a), LX},
	}
	for _, c := range checks {
		if c.got.Truthy() != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestShifts(t *testing.T) {
	v := FromUint64(8, 0b00010110)
	if got, _ := v.Shl(FromUint64(3, 2)).Uint64(); got != 0b01011000 {
		t.Errorf("shl 2 = %08b", got)
	}
	if got, _ := v.Shr(FromUint64(3, 2)).Uint64(); got != 0b00000101 {
		t.Errorf("shr 2 = %08b", got)
	}
	if !v.Shl(FromUint64(8, 200)).IsZero() {
		t.Error("over-shift left should be zero")
	}
	if !v.Shr(FromUint64(8, 200)).IsZero() {
		t.Error("over-shift right should be zero")
	}
	if !v.Shl(X(3)).HasUnknown() {
		t.Error("X shift amount should contaminate")
	}
}

func TestStructural(t *testing.T) {
	v := MustFromString("10110010")
	if got := v.Extract(5, 2).BitString(); got != "1100" {
		t.Errorf("Extract(5,2) = %s", got)
	}
	if got := v.Extract(9, 6).BitString(); got != "xx10" {
		t.Errorf("out-of-range extract = %s, want xx10", got)
	}
	a, b := MustFromString("10"), MustFromString("011")
	if got := a.Concat(b).BitString(); got != "10011" {
		t.Errorf("Concat = %s", got)
	}
	if got := MustFromString("10").Repl(3).BitString(); got != "101010" {
		t.Errorf("Repl = %s", got)
	}
	if got := MustFromString("101").Resize(6).BitString(); got != "000101" {
		t.Errorf("Resize up = %s", got)
	}
	if got := MustFromString("101101").Resize(3).BitString(); got != "101" {
		t.Errorf("Resize down = %s", got)
	}
	if got := MustFromString("101").SignExtend(6).BitString(); got != "111101" {
		t.Errorf("SignExtend = %s", got)
	}
}

func TestMux(t *testing.T) {
	tv, fv := MustFromString("1100"), MustFromString("1010")
	if got := Mux(Ones(1), tv, fv); !got.Eq4(tv) {
		t.Errorf("Mux(1) = %v", got)
	}
	if got := Mux(Zero(1), tv, fv); !got.Eq4(fv) {
		t.Errorf("Mux(0) = %v", got)
	}
	// X select merges: agreeing bits survive
	if got := Mux(X(1), tv, fv).BitString(); got != "1xx0" {
		t.Errorf("Mux(x) = %s, want 1xx0", got)
	}
}

func TestKeyAndEq4(t *testing.T) {
	a := MustFromString("1x0z")
	b := MustFromString("1x0z")
	c := MustFromString("1x00")
	if !a.Eq4(b) || a.Key() != b.Key() {
		t.Error("identical vectors must match")
	}
	if a.Eq4(c) || a.Key() == c.Key() {
		t.Error("different vectors must not match")
	}
	if a.Eq4(MustFromString("01x0z")) {
		t.Error("different widths must not match")
	}
}

func TestRand(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := Rand(100, rng.Uint64)
	if v.Width() != 100 || v.HasUnknown() {
		t.Errorf("Rand = %v", v)
	}
}

// ---- property-based tests ----

func randBV(r *rand.Rand, width int, fourState bool) BV {
	v := Zero(width)
	for i := 0; i < width; i++ {
		if fourState {
			v = v.WithBit(i, Bit(r.Intn(4)))
		} else {
			v = v.WithBit(i, Bit(r.Intn(2)))
		}
	}
	return v
}

func TestPropDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randBV(r, 16, true)
		b := randBV(r, 16, true)
		// ~(a & b) == ~a | ~b under four-state semantics
		return a.And(b).Not().Eq4(a.Not().Or(b.Not()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAddCommutesAndMatchesUint(t *testing.T) {
	f := func(x, y uint16) bool {
		a, b := FromUint64(16, uint64(x)), FromUint64(16, uint64(y))
		s1, s2 := a.Add(b), b.Add(a)
		got, ok := s1.Uint64()
		return ok && s1.Eq4(s2) && got == uint64(uint16(x+y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubInverseOfAdd(t *testing.T) {
	f := func(x, y uint16) bool {
		a, b := FromUint64(16, uint64(x)), FromUint64(16, uint64(y))
		return a.Add(b).Sub(b).Eq4(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropConcatExtractRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		hi := randBV(r, 5, true)
		lo := randBV(r, 7, true)
		c := hi.Concat(lo)
		return c.Extract(11, 7).Eq4(hi) && c.Extract(6, 0).Eq4(lo)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropNotInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randBV(r, 33, false)
		return a.Not().Not().Eq4(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropShiftComposition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randBV(r, 40, false)
		n1 := r.Intn(10)
		n2 := r.Intn(10)
		lhs := a.Shl(FromUint64(8, uint64(n1))).Shl(FromUint64(8, uint64(n2)))
		rhs := a.Shl(FromUint64(8, uint64(n1+n2)))
		return lhs.Eq4(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMuxConsistentWithSelect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tv := randBV(r, 12, true)
		fv := randBV(r, 12, true)
		return Mux(Ones(1), tv, fv).Eq4(tv) && Mux(Zero(1), tv, fv).Eq4(fv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropKeyBijective(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randBV(r, 20, true)
		b := randBV(r, 20, true)
		return (a.Key() == b.Key()) == a.Eq4(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShlEqualsMulByPowerOfTwo(t *testing.T) {
	f := func(x uint16, kRaw uint8) bool {
		k := uint64(kRaw % 8)
		a := FromUint64(16, uint64(x))
		shifted := a.Shl(FromUint64(4, k))
		mul := a.Mul(FromUint64(16, 1<<k))
		return shifted.Eq4(mul)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMulCommutes(t *testing.T) {
	f := func(x, y uint16) bool {
		a, b := FromUint64(16, uint64(x)), FromUint64(16, uint64(y))
		return a.Mul(b).Eq4(b.Mul(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropComparisonTrichotomy(t *testing.T) {
	f := func(x, y uint16) bool {
		a, b := FromUint64(16, uint64(x)), FromUint64(16, uint64(y))
		lt := a.Lt(b).Truthy() == L1
		gt := a.Gt(b).Truthy() == L1
		eq := a.Eq(b).Truthy() == L1
		count := 0
		for _, v := range []bool{lt, gt, eq} {
			if v {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropReductionsAgreeWithBitScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randBV(r, 24, false)
		allOnes, anyOne, parity := true, false, 0
		for i := 0; i < v.Width(); i++ {
			switch v.Bit(i) {
			case L1:
				anyOne = true
				parity ^= 1
			case L0:
				allOnes = false
			}
		}
		if (v.ReduceAnd().Truthy() == L1) != allOnes {
			return false
		}
		if (v.ReduceOr().Truthy() == L1) != anyOne {
			return false
		}
		return (v.ReduceXor().Truthy() == L1) == (parity == 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignExtendProperties(t *testing.T) {
	// Sign extension preserves two's-complement value.
	v := MustFromString("1000") // -8 in 4-bit
	ext := v.SignExtend(8)
	if got, _ := ext.Uint64(); got != 0xF8 {
		t.Errorf("sign extend = %#x, want 0xF8", got)
	}
	pos := MustFromString("0111")
	if got, _ := pos.SignExtend(8).Uint64(); got != 7 {
		t.Errorf("positive sign extend = %d", got)
	}
	// SignExtend to narrower width truncates.
	if v.SignExtend(2).Width() != 2 {
		t.Error("narrowing sign extend width")
	}
}

func TestBVValidAndZeroValue(t *testing.T) {
	var zero BV
	if zero.Valid() {
		t.Error("zero value must be invalid")
	}
	if !Zero(8).Valid() {
		t.Error("constructed vector must be valid")
	}
}

func TestWithBitOutOfRangeIsNoop(t *testing.T) {
	v := Zero(4)
	if !v.WithBit(10, L1).Eq4(v) || !v.WithBit(-1, L1).Eq4(v) {
		t.Error("out-of-range WithBit must be a no-op")
	}
	if v.Bit(10) != LX {
		t.Error("out-of-range Bit must read X")
	}
}

func TestTruthyEdgeCases(t *testing.T) {
	if MustFromString("z0").Truthy() != LX {
		t.Error("z bits are unknown for truthiness")
	}
	if Zero(64).Truthy() != L0 {
		t.Error("wide zero")
	}
	wide := Zero(100).WithBit(99, L1)
	if wide.Truthy() != L1 {
		t.Error("high set bit")
	}
}

func TestFromWordsRoundTrip(t *testing.T) {
	cases := []BV{
		MustFromString("10xz"),
		X(1),
		Zero(64),
		Ones(64),
		MustFromString("1").Concat(X(70)).Concat(MustFromString("z0")),
		FromUint64(37, 0x1234_5678_9a),
	}
	for _, v := range cases {
		a, b := v.Words()
		got := FromWords(v.Width(), a, b)
		if !got.Eq4(v) {
			t.Errorf("FromWords(Words(%s)) = %s", v, got)
		}
	}
}

func TestFromWordsCopiesAndMasks(t *testing.T) {
	a := []uint64{^uint64(0), ^uint64(0)}
	b := []uint64{0, ^uint64(0)}
	v := FromWords(70, a, b)
	// Bits 64..69 come from word 1 (all-X there); bit 70+ is masked off.
	if v.Bit(0) != L1 || v.Bit(63) != L1 || v.Bit(64) != LX || v.Bit(69) != LX {
		t.Fatalf("unexpected bits in %s", v)
	}
	va, vb := v.Words()
	if va[1] != topMask(70)&a[1] || vb[1] != topMask(70)&b[1] {
		t.Error("top word must be masked")
	}
	// Mutating the inputs must not affect the vector.
	a[0] = 0
	b[1] = 0
	if v.Bit(0) != L1 || v.Bit(69) != LX {
		t.Error("FromWords must copy its inputs")
	}
}

func TestFromWordsShortPlanesZeroExtend(t *testing.T) {
	v := FromWords(100, []uint64{7}, []uint64{4})
	if v.Bit(0) != L1 || v.Bit(1) != L1 || v.Bit(2) != LX {
		t.Fatalf("low word wrong: %s", v)
	}
	if v.Bit(64) != L0 || v.Bit(99) != L0 {
		t.Error("missing high words must read as known 0")
	}
}

// TestOneBitResultsDoNotAllocate pins the shared 1-bit results of
// reductions, logical operators and comparisons.
func TestOneBitResultsDoNotAllocate(t *testing.T) {
	a, b, x := FromUint64(8, 5), FromUint64(8, 9), X(8)
	allocs := testing.AllocsPerRun(100, func() {
		for _, v := range []BV{
			a.Eq(b), a.Neq(b), a.Lt(b), a.Le(x), a.LogicalAnd(b), a.LogicalOr(x),
			x.LogicalNot(), a.ReduceAnd(), a.ReduceOr(), x.ReduceXor(),
		} {
			_ = v
		}
	})
	if allocs != 0 {
		t.Errorf("1-bit results allocate %.1f times", allocs)
	}
	if got := a.Lt(b).String(); got != "1'b1" {
		t.Errorf("5 < 9 = %s", got)
	}
	if got := a.Eq(x).String(); got != "1'bx" {
		t.Errorf("5 == X = %s", got)
	}
}
