// Package sa is the compile-time static-analysis framework over SSA QIR:
// sparse conditional value-range analysis (integer intervals refined by
// dominating branch conditions), nullness, and base-pointer derivation
// analysis — the static analog of the offset-chain folding the vm's fusion
// pass performs at decode time. Its facts feed the check-elimination rewrite
// in internal/codegen and the qlint diagnostics.
package sa

import (
	"math"
	"strconv"

	"qcc/internal/sem"
)

// Infinity sentinels. Interval arithmetic saturates at these bounds, so an
// unknown quantity is representable as [NegInf, PosInf] without special
// cases in the transfer functions.
const (
	NegInf = math.MinInt64
	PosInf = math.MaxInt64
)

// Interval is an inclusive signed-64-bit value range [Lo, Hi]. The empty
// interval (Lo > Hi) marks contradictory facts (e.g. a branch condition that
// cannot hold).
type Interval struct {
	Lo, Hi int64
}

// String renders the interval with inf/-inf for the sentinel bounds.
func (i Interval) String() string {
	if i.Empty() {
		return "[empty]"
	}
	lo, hi := "-inf", "+inf"
	if i.Lo != NegInf {
		lo = strconv.FormatInt(i.Lo, 10)
	}
	if i.Hi != PosInf {
		hi = strconv.FormatInt(i.Hi, 10)
	}
	return "[" + lo + "," + hi + "]"
}

// Top is the unconstrained interval.
func Top() Interval { return Interval{NegInf, PosInf} }

// Point is the singleton interval {v}.
func Point(v int64) Interval { return Interval{v, v} }

// Range is the interval [lo, hi].
func Range(lo, hi int64) Interval { return Interval{lo, hi} }

// Empty reports whether the interval contains no values.
func (i Interval) Empty() bool { return i.Lo > i.Hi }

// IsPoint reports whether the interval is a single value.
func (i Interval) IsPoint() bool { return i.Lo == i.Hi }

// IsTop reports whether the interval is unconstrained.
func (i Interval) IsTop() bool { return i.Lo == NegInf && i.Hi == PosInf }

// Contains reports whether v lies in the interval.
func (i Interval) Contains(v int64) bool { return i.Lo <= v && v <= i.Hi }

// Union returns the smallest interval covering both inputs.
func (i Interval) Union(o Interval) Interval {
	if i.Empty() {
		return o
	}
	if o.Empty() {
		return i
	}
	return Interval{min64(i.Lo, o.Lo), max64(i.Hi, o.Hi)}
}

// Meet intersects two intervals; the result may be empty.
func (i Interval) Meet(o Interval) Interval {
	return Interval{max64(i.Lo, o.Lo), min64(i.Hi, o.Hi)}
}

// SatAdd is saturating signed addition, used when refining ranges from
// branch predicates (where endpoint saturation is sound) and for the
// trap-on-overflow arithmetic ops (which never wrap at runtime).
func SatAdd(a, b int64) int64 {
	s, ok := sem.SAdd(a, b)
	switch {
	case ok:
		return s
	case a > 0:
		return PosInf
	}
	return NegInf
}

// Add returns the interval of sums. Runtime arithmetic wraps at 64 bits, so
// any endpoint overflow forces Top: with exact endpoints, every element sum
// is representable and hence does not wrap.
func (i Interval) Add(o Interval) Interval {
	if i.Empty() || o.Empty() {
		return i
	}
	lo, ok1 := sem.SAdd(i.Lo, o.Lo)
	hi, ok2 := sem.SAdd(i.Hi, o.Hi)
	if !ok1 || !ok2 {
		return Top()
	}
	return Interval{lo, hi}
}

// Sub returns the interval of differences; endpoint overflow forces Top
// (wrapping runtime semantics).
func (i Interval) Sub(o Interval) Interval {
	if i.Empty() || o.Empty() {
		return i
	}
	lo, ok1 := sem.SSub(i.Lo, o.Hi)
	hi, ok2 := sem.SSub(i.Hi, o.Lo)
	if !ok1 || !ok2 {
		return Top()
	}
	return Interval{lo, hi}
}

// Mul returns the interval of products by corner evaluation; any corner
// overflow forces Top (wrapping runtime semantics).
func (i Interval) Mul(o Interval) Interval {
	if i.Empty() || o.Empty() {
		return i
	}
	var c [4]int64
	pairs := [4][2]int64{{i.Lo, o.Lo}, {i.Lo, o.Hi}, {i.Hi, o.Lo}, {i.Hi, o.Hi}}
	for k, p := range pairs {
		v, ok := sem.SMul(p[0], p[1])
		if !ok {
			return Top()
		}
		c[k] = v
	}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		lo, hi = min64(lo, v), max64(hi, v)
	}
	return Interval{lo, hi}
}

// Neg returns the negated interval; negating MinInt64 wraps, forcing Top.
func (i Interval) Neg() Interval {
	if i.Empty() {
		return i
	}
	if i.Lo == NegInf {
		return Top()
	}
	return Interval{-i.Hi, -i.Lo}
}

// AddSat is saturating interval addition — sound only for operations that
// trap instead of wrapping on overflow (OpSAddTrap).
func (i Interval) AddSat(o Interval) Interval {
	if i.Empty() || o.Empty() {
		return i
	}
	return Interval{SatAdd(i.Lo, o.Lo), SatAdd(i.Hi, o.Hi)}
}

// SubSat is saturating interval subtraction (for OpSSubTrap).
func (i Interval) SubSat(o Interval) Interval {
	if i.Empty() || o.Empty() {
		return i
	}
	return Interval{SatAdd(i.Lo, satNeg(o.Hi)), SatAdd(i.Hi, satNeg(o.Lo))}
}

func satNeg(v int64) int64 {
	if v == NegInf {
		return PosInf
	}
	return -v
}

func satMul(a, b int64) int64 {
	v, ok := sem.SMul(a, b)
	if !ok {
		if (a > 0) == (b > 0) {
			return PosInf
		}
		return NegInf
	}
	return v
}

// MulSat is saturating interval multiplication (for OpSMulTrap).
func (i Interval) MulSat(o Interval) Interval {
	if i.Empty() || o.Empty() {
		return i
	}
	c := [4]int64{
		satMul(i.Lo, o.Lo), satMul(i.Lo, o.Hi),
		satMul(i.Hi, o.Lo), satMul(i.Hi, o.Hi),
	}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		lo, hi = min64(lo, v), max64(hi, v)
	}
	return Interval{lo, hi}
}

// TypeBounds returns the representable range of a w-byte signed integer;
// values wider than 8 bytes (i128) fall back to the full 64-bit range of
// their low half.
func TypeBounds(sizeBytes int64) Interval {
	if sizeBytes >= 8 || sizeBytes <= 0 {
		return Top()
	}
	half := int64(1) << (uint(sizeBytes)*8 - 1)
	return Interval{-half, half - 1}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
