// Package absint is a sound abstract interpretation over the hash-consed
// core IR. It runs two cooperating domains per bitvector node — known-bits
// (a ternary value per bit, generalizing the Kleene booleans of
// internal/backends/ternary.go to each bit of a vector) and unsigned
// intervals [Lo, Hi] over the raw bit pattern — plus Kleene booleans for
// bool nodes and fieldwise products for objects. The two bitvector domains
// exchange information after every transfer function (a known low bit
// raises the interval floor; a tight interval pins the shared high bits),
// which is what lets the analysis decide facts neither domain sees alone.
//
// The package spends the analysis three ways: Simplify (a presolve pass
// that rewrites the DAG before any solver runs), the ZL6xx lint analyzers
// (internal/lint), and a static backend predictor (predict.go).
package absint

import (
	"math/bits"

	"zen-go/internal/core"
)

// Trit is a Kleene truth value: definitely false, definitely true, or
// unknown ("both").
type Trit uint8

// Kleene truth values. The zero value is the unknown top element.
const (
	TritBoth Trit = iota
	TritFalse
	TritTrue
)

// Bits is the known-bits lattice element for a bitvector: a bit set in
// Zeros is known to be 0 in every concrete value, a bit set in Ones is
// known to be 1. Both masks stay within the type width; overlapping masks
// mean the element is empty (no concrete value exists).
type Bits struct {
	Zeros uint64
	Ones  uint64
}

// Interval is an inclusive unsigned range over the raw bit pattern of a
// bitvector. It is meaningful for signed types too: the analysis only
// draws signed conclusions when the sign bits are known (see absLt).
type Interval struct {
	Lo, Hi uint64
}

// Value is the abstract value of one IR node. Which fields are meaningful
// depends on Kind, mirroring how core.Node payloads depend on Op.
type Value struct {
	Kind  core.Kind
	Width int  // KindBV: operand width in bits
	B     Trit // KindBool
	Bits  Bits // KindBV
	Rng   Interval
	// KindObject: one abstract value per field, in type order. Nil means
	// nothing is known (top).
	Fields []Value
	// Empty marks a contradiction: no concrete value satisfies the
	// constraints, i.e. the program point is unreachable under the
	// current assumptions.
	Empty bool
}

func maskOf(width int) uint64 {
	if width <= 0 {
		return 0
	}
	return ^uint64(0) >> uint(64-width)
}

// topOf returns the no-information element for a type.
func topOf(t *core.Type) Value {
	switch t.Kind {
	case core.KindBool:
		return Value{Kind: core.KindBool, B: TritBoth}
	case core.KindBV:
		return Value{Kind: core.KindBV, Width: t.Width, Rng: Interval{0, maskOf(t.Width)}}
	case core.KindObject:
		fs := make([]Value, len(t.Fields))
		for i, f := range t.Fields {
			fs[i] = topOf(f.Type)
		}
		return Value{Kind: core.KindObject, Fields: fs}
	default:
		return Value{Kind: t.Kind}
	}
}

func emptyOf(t *core.Type) Value {
	v := topOf(t)
	v.Empty = true
	return v
}

func boolVal(b bool) Value {
	if b {
		return Value{Kind: core.KindBool, B: TritTrue}
	}
	return Value{Kind: core.KindBool, B: TritFalse}
}

func tritVal(t Trit) Value { return Value{Kind: core.KindBool, B: t} }

func bvConst(width int, v uint64) Value {
	m := maskOf(width)
	v &= m
	return Value{
		Kind: core.KindBV, Width: width,
		Bits: Bits{Zeros: ^v & m, Ones: v},
		Rng:  Interval{v, v},
	}
}

// bv assembles a bitvector value from raw domain elements and normalizes.
func bv(width int, b Bits, r Interval) Value {
	return (Value{Kind: core.KindBV, Width: width, Bits: b, Rng: r}).norm()
}

// norm closes a bitvector value under the bits<->interval exchange:
// known-one bits raise the floor, known-zero bits cap the ceiling, and the
// high bits shared by Lo and Hi become known. The masks only grow and the
// interval only shrinks, so the loop reaches a fixpoint in a few rounds;
// a crossing (Lo > Hi or Zeros∩Ones ≠ ∅) means the element is empty.
func (v Value) norm() Value {
	if v.Kind != core.KindBV || v.Empty {
		return v
	}
	m := maskOf(v.Width)
	b := Bits{Zeros: v.Bits.Zeros & m, Ones: v.Bits.Ones & m}
	r := v.Rng
	if r.Hi > m {
		r.Hi = m
	}
	for i := 0; i < 4; i++ {
		if b.Zeros&b.Ones != 0 {
			return Value{Kind: core.KindBV, Width: v.Width, Empty: true}
		}
		if r.Lo < b.Ones {
			r.Lo = b.Ones
		}
		if cap := m &^ b.Zeros; r.Hi > cap {
			r.Hi = cap
		}
		if r.Lo > r.Hi {
			return Value{Kind: core.KindBV, Width: v.Width, Empty: true}
		}
		// Bits shared by every value in [Lo, Hi]: everything above the
		// highest bit where Lo and Hi differ.
		var shared uint64
		if x := r.Lo ^ r.Hi; x == 0 {
			shared = m
		} else {
			shared = m &^ (uint64(1)<<uint(bits.Len64(x)) - 1)
		}
		nb := Bits{Zeros: b.Zeros | (^r.Lo & shared & m), Ones: b.Ones | (r.Lo & shared)}
		if nb == b {
			break
		}
		b = nb
	}
	return Value{Kind: core.KindBV, Width: v.Width, Bits: b, Rng: r}
}

// AsBool reports the concrete boolean when the value is definite.
func (v Value) AsBool() (bool, bool) {
	if v.Kind != core.KindBool || v.Empty || v.B == TritBoth {
		return false, false
	}
	return v.B == TritTrue, true
}

// AsConst reports the concrete bit pattern when the bitvector is pinned
// to a single value.
func (v Value) AsConst() (uint64, bool) {
	if v.Kind != core.KindBV || v.Empty || v.Rng.Lo != v.Rng.Hi {
		return 0, false
	}
	return v.Rng.Lo, true
}

// pinned reports whether the value is a singleton — a decided boolean
// or a one-point interval — which no refinement can improve.
func (v Value) pinned() bool {
	if v.Empty {
		return false
	}
	switch v.Kind {
	case core.KindBool:
		return v.B != TritBoth
	case core.KindBV:
		return v.Rng.Lo == v.Rng.Hi
	}
	return false
}

// Tight reports whether the analysis knows anything beyond the type: a
// decided boolean, any known bit, or a trimmed interval.
func (v Value) Tight() bool {
	switch v.Kind {
	case core.KindBool:
		return v.B != TritBoth
	case core.KindBV:
		return v.Empty || v.Bits.Zeros != 0 || v.Bits.Ones != 0 ||
			v.Rng.Lo != 0 || v.Rng.Hi != maskOf(v.Width)
	}
	return false
}

// join is the least upper bound: the result admits every concrete value
// admitted by either argument (used to merge If branches).
func join(a, b Value) Value {
	if a.Empty {
		return b
	}
	if b.Empty {
		return a
	}
	if a.Kind != b.Kind {
		// Malformed input (lint runs on deliberately broken DAGs); give up.
		return Value{Kind: a.Kind}
	}
	switch a.Kind {
	case core.KindBool:
		if a.B == b.B {
			return a
		}
		return tritVal(TritBoth)
	case core.KindBV:
		if a.Width != b.Width {
			return Value{Kind: core.KindBV, Width: a.Width, Rng: Interval{0, maskOf(a.Width)}}
		}
		return bv(a.Width,
			Bits{Zeros: a.Bits.Zeros & b.Bits.Zeros, Ones: a.Bits.Ones & b.Bits.Ones},
			Interval{Lo: min64(a.Rng.Lo, b.Rng.Lo), Hi: max64(a.Rng.Hi, b.Rng.Hi)})
	case core.KindObject:
		if len(a.Fields) != len(b.Fields) {
			return Value{Kind: core.KindObject}
		}
		fs := make([]Value, len(a.Fields))
		for i := range fs {
			fs[i] = join(a.Fields[i], b.Fields[i])
		}
		return Value{Kind: core.KindObject, Fields: fs}
	default:
		return Value{Kind: a.Kind}
	}
}

// meet is the greatest lower bound: the result admits only concrete
// values admitted by both arguments (used to refine under assumptions).
// An empty result means the assumptions contradict each other.
func meet(a, b Value) Value {
	if a.Empty {
		return a
	}
	if b.Empty {
		return b
	}
	if a.Kind != b.Kind {
		return a
	}
	switch a.Kind {
	case core.KindBool:
		switch {
		case a.B == TritBoth:
			return b
		case b.B == TritBoth || a.B == b.B:
			return a
		default:
			return Value{Kind: core.KindBool, Empty: true}
		}
	case core.KindBV:
		if a.Width != b.Width {
			return a
		}
		return bv(a.Width,
			Bits{Zeros: a.Bits.Zeros | b.Bits.Zeros, Ones: a.Bits.Ones | b.Bits.Ones},
			Interval{Lo: max64(a.Rng.Lo, b.Rng.Lo), Hi: min64(a.Rng.Hi, b.Rng.Hi)})
	case core.KindObject:
		if len(a.Fields) != len(b.Fields) {
			return a
		}
		fs := make([]Value, len(a.Fields))
		for i := range fs {
			fs[i] = meet(a.Fields[i], b.Fields[i])
			if fs[i].Empty {
				return Value{Kind: core.KindObject, Fields: fs, Empty: true}
			}
		}
		return Value{Kind: core.KindObject, Fields: fs}
	default:
		return a
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// --- Kleene boolean transfer ---

func triNot(a Trit) Trit {
	switch a {
	case TritTrue:
		return TritFalse
	case TritFalse:
		return TritTrue
	}
	return TritBoth
}

func triAnd(a, b Trit) Trit {
	if a == TritFalse || b == TritFalse {
		return TritFalse
	}
	if a == TritTrue && b == TritTrue {
		return TritTrue
	}
	return TritBoth
}

func triOr(a, b Trit) Trit {
	if a == TritTrue || b == TritTrue {
		return TritTrue
	}
	if a == TritFalse && b == TritFalse {
		return TritFalse
	}
	return TritBoth
}

// --- Known-bits transfer ---

func (k Bits) max(m uint64) uint64 { return m &^ k.Zeros } // unknown bits high
func (k Bits) min() uint64         { return k.Ones }       // unknown bits low

func bitsAnd(a, b Bits, m uint64) Bits {
	return Bits{Zeros: (a.Zeros | b.Zeros) & m, Ones: a.Ones & b.Ones}
}

func bitsOr(a, b Bits, m uint64) Bits {
	return Bits{Zeros: a.Zeros & b.Zeros, Ones: (a.Ones | b.Ones) & m}
}

func bitsXor(a, b Bits, m uint64) Bits {
	return Bits{
		Zeros: ((a.Zeros & b.Zeros) | (a.Ones & b.Ones)) & m,
		Ones:  ((a.Zeros & b.Ones) | (a.Ones & b.Zeros)) & m,
	}
}

func bitsNot(a Bits, m uint64) Bits {
	return Bits{Zeros: a.Ones & m, Ones: a.Zeros & m}
}

// bitsAddCarry is the classic carry-propagation algorithm (LLVM's
// KnownBits::computeForAddCarry): a sum bit is known exactly where both
// operand bits and the incoming carry bit are known, and the carry
// knowledge is derived by comparing the extreme sums. carryOne selects
// the known incoming carry (false for add, true for sub's a + ^b + 1).
func bitsAddCarry(a, b Bits, m uint64, carryOne bool) Bits {
	var carryIn uint64
	if carryOne {
		carryIn = 1
	}
	possibleSumZero := a.max(m) + b.max(m) + carryIn
	possibleSumOne := a.min() + b.min() + carryIn

	carryKnownZero := ^(possibleSumZero ^ a.Zeros ^ b.Zeros)
	carryKnownOne := possibleSumOne ^ a.Ones ^ b.Ones

	aKnown := a.Zeros | a.Ones
	bKnown := b.Zeros | b.Ones
	known := aKnown & bKnown & (carryKnownZero | carryKnownOne) & m
	return Bits{Zeros: ^possibleSumZero & known, Ones: possibleSumOne & known}
}

func bitsShl(a Bits, amount int, width int) Bits {
	m := maskOf(width)
	if amount >= width {
		return Bits{Zeros: m}
	}
	// Vacated low bits are known zero.
	return Bits{
		Zeros: (a.Zeros<<uint(amount) | (uint64(1)<<uint(amount) - 1)) & m,
		Ones:  a.Ones << uint(amount) & m,
	}
}

func bitsShr(a Bits, amount int, width int) Bits {
	m := maskOf(width)
	if amount >= width {
		return Bits{Zeros: m}
	}
	// Vacated high bits are known zero.
	high := m &^ (m >> uint(amount))
	return Bits{Zeros: (a.Zeros&m)>>uint(amount) | high, Ones: (a.Ones & m) >> uint(amount)}
}

// bitsMul knows the low product bits below the first unknown operand bit,
// and that trailing zeros add across the factors.
func bitsMul(a, b Bits, m uint64) Bits {
	known := func(k Bits) int { return bits.TrailingZeros64(^(k.Zeros | k.Ones)) }
	lowKnown := min(known(a), known(b))
	var out Bits
	if lowKnown > 0 {
		if lowKnown > 64 {
			lowKnown = 64
		}
		low := ^uint64(0) >> uint(64-lowKnown)
		p := (a.Ones & low) * (b.Ones & low)
		out = Bits{Zeros: ^p & low & m, Ones: p & low & m}
	}
	// Trailing zeros of the product ≥ sum of the factors' trailing zeros.
	tz := bits.TrailingZeros64(^a.Zeros) + bits.TrailingZeros64(^b.Zeros)
	if tz > 64 {
		tz = 64
	}
	if tz > 0 {
		out.Zeros |= (^uint64(0) >> uint(64-tz)) & m &^ out.Ones
	}
	return Bits{Zeros: out.Zeros & m, Ones: out.Ones & m}
}

// --- Interval transfer ---
// Every rule falls back to the full range when wraparound is possible;
// norm() then recovers whatever the bits domain still knows.

func rngAdd(a, b Interval, m uint64) Interval {
	hi, carry := bits.Add64(a.Hi, b.Hi, 0)
	if carry == 0 && hi <= m {
		return Interval{a.Lo + b.Lo, hi}
	}
	return Interval{0, m}
}

func rngSub(a, b Interval, m uint64) Interval {
	if a.Lo >= b.Hi {
		return Interval{a.Lo - b.Hi, a.Hi - b.Lo}
	}
	return Interval{0, m}
}

func rngMul(a, b Interval, m uint64) Interval {
	over, hi := bits.Mul64(a.Hi, b.Hi)
	if over == 0 && hi <= m {
		return Interval{a.Lo * b.Lo, hi}
	}
	return Interval{0, m}
}

func rngAnd(a, b Interval) Interval {
	return Interval{0, min64(a.Hi, b.Hi)}
}

func rngOr(a, b Interval, m uint64) Interval {
	// a|b cannot exceed the next all-ones value at or above both operands.
	hi := uint64(1)<<uint(bits.Len64(a.Hi|b.Hi)) - 1
	return Interval{max64(a.Lo, b.Lo), min64(hi, m)}
}

func rngXor(a, b Interval, m uint64) Interval {
	hi := uint64(1)<<uint(bits.Len64(a.Hi|b.Hi)) - 1
	return Interval{0, min64(hi, m)}
}

func rngNot(a Interval, m uint64) Interval {
	return Interval{m - a.Hi, m - a.Lo}
}

func rngShl(a Interval, amount int, m uint64) Interval {
	if amount < 64 && a.Hi <= m>>uint(amount) {
		return Interval{a.Lo << uint(amount), a.Hi << uint(amount)}
	}
	return Interval{0, m}
}

func rngShr(a Interval, amount int) Interval {
	if amount >= 64 {
		return Interval{0, 0}
	}
	return Interval{a.Lo >> uint(amount), a.Hi >> uint(amount)}
}

// --- Comparison decisions ---

// absEq decides structural equality of two abstract values when possible.
func absEq(a, b Value) Trit {
	if a.Empty || b.Empty || a.Kind != b.Kind {
		return TritBoth
	}
	switch a.Kind {
	case core.KindBool:
		if a.B == TritBoth || b.B == TritBoth {
			return TritBoth
		}
		if a.B == b.B {
			return TritTrue
		}
		return TritFalse
	case core.KindBV:
		if a.Width != b.Width {
			return TritBoth
		}
		// Disjoint intervals or conflicting known bits rule equality out.
		if a.Rng.Hi < b.Rng.Lo || b.Rng.Hi < a.Rng.Lo {
			return TritFalse
		}
		if a.Bits.Ones&b.Bits.Zeros != 0 || b.Bits.Ones&a.Bits.Zeros != 0 {
			return TritFalse
		}
		if ac, ok := a.AsConst(); ok {
			if bc, ok := b.AsConst(); ok && ac == bc {
				return TritTrue
			}
		}
		return TritBoth
	case core.KindObject:
		if len(a.Fields) != len(b.Fields) {
			return TritBoth
		}
		out := TritTrue
		for i := range a.Fields {
			switch absEq(a.Fields[i], b.Fields[i]) {
			case TritFalse:
				return TritFalse
			case TritBoth:
				out = TritBoth
			}
		}
		return out
	default:
		return TritBoth
	}
}

// absLt decides a < b over the raw intervals. For signed operands the
// unsigned interval still orders values of equal sign (two's complement
// preserves order within a sign class), so a decision needs both sign
// bits known; differing known signs decide immediately.
func absLt(a, b Value, signed bool) Trit {
	if a.Empty || b.Empty || a.Kind != core.KindBV || b.Kind != core.KindBV || a.Width != b.Width {
		return TritBoth
	}
	if signed {
		sign := uint64(1) << uint(a.Width-1)
		aNeg, aKnown := signOf(a.Bits, sign)
		bNeg, bKnown := signOf(b.Bits, sign)
		if !aKnown || !bKnown {
			return TritBoth
		}
		if aNeg != bNeg {
			if aNeg {
				return TritTrue
			}
			return TritFalse
		}
		// Same sign: fall through to the unsigned rule on raw bits.
	}
	if a.Rng.Hi < b.Rng.Lo {
		return TritTrue
	}
	if b.Rng.Hi <= a.Rng.Lo {
		return TritFalse
	}
	return TritBoth
}

func signOf(k Bits, sign uint64) (neg, known bool) {
	if k.Ones&sign != 0 {
		return true, true
	}
	if k.Zeros&sign != 0 {
		return false, true
	}
	return false, false
}
