// Package sem is the one definition of what a QIR scalar operation means:
// the canonical register form of narrow integers, the integer binary, shift
// and rotate operations, division with its divide-by-zero trap, the
// overflow-checked arithmetic at every width including 128 bits, the
// integer, 128-bit and float comparisons, and the width conversions.
//
// The interpreter, the LLVM and GCC analogs' constant folders, the batch
// kernels, the runtime's overflow and 128-bit helpers and the static
// analyser's exact arithmetic call it. The vm's dispatch loop (runFused and
// its run-step loop stepRun) and the machine-code back-ends implement the
// same meaning in their own terms and are held to this package, op by op,
// by TestOpSemantics.
//
// A value of integer type is a 64-bit word in canonical form: an I1 is 0 or
// 1, an I8, I16 or I32 is sign-extended to 64 bits. An I128 is two words.
// Every operation takes canonical operands and returns a canonical result.
package sem

import (
	"math/bits"

	"qcc/internal/qir"
	"qcc/internal/vt"
)

// Canon returns v in the canonical form of integer type t: its low bits,
// sign-extended (I1: the low bit).
func Canon(t qir.Type, v uint64) uint64 {
	switch t {
	case qir.I1:
		return v & 1
	case qir.I8:
		return uint64(int64(int8(v)))
	case qir.I16:
		return uint64(int64(int16(v)))
	case qir.I32:
		return uint64(int64(int32(v)))
	}
	return v
}

// ZExt returns the low bits of v that make up a value of type t,
// zero-extended to 64 bits.
func ZExt(t qir.Type, v uint64) uint64 {
	switch t {
	case qir.I1:
		return v & 1
	case qir.I8:
		return uint64(uint8(v))
	case qir.I16:
		return uint64(uint16(v))
	case qir.I32:
		return uint64(uint32(v))
	}
	return v
}

// Eval evaluates an integer operation on operands of type t (I1 to I64):
// the binary, shift and rotate operations, Neg and Not (which ignore b), the
// four divisions and the overflow-checked SAddTrap, SSubTrap and SMulTrap.
// When the operation traps, ok is false and trap says why.
//
// The operations wrap at the width of t. Shift and rotate counts are taken
// modulo 64 and act on the 64-bit canonical word, except that a logical
// right shift shifts the zero-extension of the value, so the bits it brings
// in are zeros at width t. Signed division truncates toward zero, and the
// one quotient that overflows, the minimum divided by -1, wraps; unsigned
// division divides the canonical words. The checked operations trap when the
// exact result does not fit in t.
func Eval(op qir.Op, t qir.Type, a, b uint64) (r uint64, trap vt.TrapCode, ok bool) {
	switch op {
	case qir.OpAdd:
		r = a + b
	case qir.OpSub:
		r = a - b
	case qir.OpMul:
		r = a * b
	case qir.OpAnd:
		r = a & b
	case qir.OpOr:
		r = a | b
	case qir.OpXor:
		r = a ^ b
	case qir.OpShl:
		r = a << (b & 63)
	case qir.OpShr:
		r = ZExt(t, a) >> (b & 63)
	case qir.OpSar:
		r = uint64(int64(a) >> (b & 63))
	case qir.OpRotr:
		r = bits.RotateLeft64(a, -int(b&63))
	case qir.OpNeg:
		r = -a
	case qir.OpNot:
		r = ^a
	case qir.OpSDiv, qir.OpSRem, qir.OpUDiv, qir.OpURem:
		if b == 0 {
			return 0, vt.TrapDivZero, false
		}
		switch op {
		case qir.OpSDiv:
			r = uint64(int64(a) / int64(b))
		case qir.OpSRem:
			r = uint64(int64(a) % int64(b))
		case qir.OpUDiv:
			r = a / b
		default:
			r = a % b
		}
	case qir.OpSAddTrap:
		s, ok := SAdd(int64(a), int64(b))
		return fits(t, s, ok)
	case qir.OpSSubTrap:
		s, ok := SSub(int64(a), int64(b))
		return fits(t, s, ok)
	case qir.OpSMulTrap:
		s, ok := SMul(int64(a), int64(b))
		return fits(t, s, ok)
	default:
		panic("sem: " + op.String() + " is not an integer operation")
	}
	return Canon(t, r), 0, true
}

// fits completes a checked operation: the 64-bit result r, exact when ok,
// must also be a value of type t.
func fits(t qir.Type, r int64, ok bool) (uint64, vt.TrapCode, bool) {
	if !ok || Canon(t, uint64(r)) != uint64(r) {
		return 0, vt.TrapOverflow, false
	}
	return uint64(r), 0, true
}

// SAdd returns a+b and whether it is exact: the sum overflows when its sign
// differs from the signs of both operands.
func SAdd(a, b int64) (int64, bool) {
	r := a + b
	return r, (r^a)&(r^b) >= 0
}

// SSub returns a-b and whether it is exact: the difference overflows when
// the operands' signs differ and its sign differs from a's.
func SSub(a, b int64) (int64, bool) {
	r := a - b
	return r, (a^b)&(r^a) >= 0
}

// SMul returns a*b and whether it is exact: the product fits when the high
// word of the 128-bit product is the sign extension of the low word.
func SMul(a, b int64) (int64, bool) {
	hi, lo := MulWideS(uint64(a), uint64(b))
	return int64(lo), int64(hi) == int64(lo)>>63
}

// MulWideS returns the 128-bit product of a and b read as signed words: the
// unsigned product with each negative operand's weight of 2^64 taken back
// out of the high word.
func MulWideS(a, b uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	if int64(a) < 0 {
		hi -= b
	}
	if int64(b) < 0 {
		hi -= a
	}
	return hi, lo
}

// ICmp evaluates an integer comparison of canonical words. Sign extension
// preserves the unsigned order of narrow values, so one definition serves
// every width up to I64. A predicate out of range is false rather than a
// panic, which keeps the function small enough to inline into the batch
// filters and the interpreter.
func ICmp(c qir.Cmp, a, b uint64) bool {
	switch c {
	case qir.CmpEQ:
		return a == b
	case qir.CmpNE:
		return a != b
	case qir.CmpSLT:
		return int64(a) < int64(b)
	case qir.CmpSLE:
		return int64(a) <= int64(b)
	case qir.CmpSGT:
		return int64(a) > int64(b)
	case qir.CmpSGE:
		return int64(a) >= int64(b)
	case qir.CmpULT:
		return a < b
	case qir.CmpULE:
		return a <= b
	case qir.CmpUGT:
		return a > b
	case qir.CmpUGE:
		return a >= b
	}
	return false
}

// FCmp evaluates a float comparison; the signed and unsigned forms of a
// predicate mean the same, and every ordering is false on a NaN. A predicate
// out of range is false, as in ICmp.
func FCmp(c qir.Cmp, a, b float64) bool {
	switch c {
	case qir.CmpEQ:
		return a == b
	case qir.CmpNE:
		return a != b
	case qir.CmpSLT, qir.CmpULT:
		return a < b
	case qir.CmpSLE, qir.CmpULE:
		return a <= b
	case qir.CmpSGT, qir.CmpUGT:
		return a > b
	case qir.CmpSGE, qir.CmpUGE:
		return a >= b
	}
	return false
}

// Convert evaluates ZExt, SExt or Trunc (op) of the canonical value v from
// type from to type to; when from is I128, v is its low word. The result is
// the pair of words of an I128 and the canonical word (hi zero) otherwise.
// Narrowing a canonical value and sign-extending it to at most 64 bits are
// both its canonical form at the target type.
func Convert(op qir.Op, to, from qir.Type, v uint64) (lo, hi uint64) {
	switch {
	case op == qir.OpZExt:
		v = ZExt(from, v)
	case op == qir.OpSExt && to == qir.I128:
		return v, uint64(int64(v) >> 63)
	}
	if to == qir.I128 {
		return v, 0
	}
	return Canon(to, v), 0
}
