package sem

import (
	"math/bits"

	"qcc/internal/qir"
	"qcc/internal/vt"
)

// I128 is a 128-bit integer as its two's-complement low and high words: the
// value of a QIR I128 and of a SQL decimal.
type I128 struct {
	Lo, Hi uint64
}

// IsNeg reports whether a < 0.
func (a I128) IsNeg() bool { return int64(a.Hi) < 0 }

// Neg returns -a, wrapping.
func (a I128) Neg() I128 {
	lo, borrow := bits.Sub64(0, a.Lo, 0)
	hi, _ := bits.Sub64(0, a.Hi, borrow)
	return I128{lo, hi}
}

// Add returns a+b, wrapping.
func (a I128) Add(b I128) I128 {
	lo, c := bits.Add64(a.Lo, b.Lo, 0)
	hi, _ := bits.Add64(a.Hi, b.Hi, c)
	return I128{lo, hi}
}

// Sub returns a-b, wrapping.
func (a I128) Sub(b I128) I128 {
	lo, borrow := bits.Sub64(a.Lo, b.Lo, 0)
	hi, _ := bits.Sub64(a.Hi, b.Hi, borrow)
	return I128{lo, hi}
}

// Mul returns a*b, wrapping.
func (a I128) Mul(b I128) I128 {
	hi, lo := bits.Mul64(a.Lo, b.Lo)
	hi += a.Hi*b.Lo + a.Lo*b.Hi
	return I128{lo, hi}
}

// SAdd returns a+b and whether it is exact (the rule of SAdd on the high
// words).
func (a I128) SAdd(b I128) (I128, bool) {
	r := a.Add(b)
	return r, int64((r.Hi^a.Hi)&(r.Hi^b.Hi)) >= 0
}

// SSub returns a-b and whether it is exact (the rule of SSub on the high
// words).
func (a I128) SSub(b I128) (I128, bool) {
	r := a.Sub(b)
	return r, int64((a.Hi^b.Hi)&(r.Hi^a.Hi)) >= 0
}

// SMul returns a*b and whether it is exact: the magnitudes are multiplied
// as unsigned numbers, which must fit in 128 bits and then in the signed
// range of the product's sign.
func (a I128) SMul(b I128) (I128, bool) {
	ua, ub := a.abs(), b.abs()
	if ua.Hi != 0 && ub.Hi != 0 {
		return I128{}, false
	}
	c1, m1 := bits.Mul64(ua.Hi, ub.Lo)
	c2, m2 := bits.Mul64(ua.Lo, ub.Hi)
	hi, lo := bits.Mul64(ua.Lo, ub.Lo)
	hi, c3 := bits.Add64(hi, m1, 0)
	hi, c4 := bits.Add64(hi, m2, 0)
	if c1|c2|c3|c4 != 0 {
		return I128{}, false
	}
	r := I128{lo, hi}
	if a.IsNeg() != b.IsNeg() {
		r = r.Neg()
		return r, r.IsNeg() || r == I128{}
	}
	return r, !r.IsNeg()
}

// abs returns |a| as an unsigned magnitude (the minimum maps to itself,
// which read unsigned is its magnitude).
func (a I128) abs() I128 {
	if a.IsNeg() {
		return a.Neg()
	}
	return a
}

// Div returns the signed quotient a/b truncated toward zero; b must not be
// zero. The minimum divided by -1 wraps.
func (a I128) Div(b I128) I128 {
	q, _ := udivmod(a.abs(), b.abs())
	if a.IsNeg() != b.IsNeg() {
		return q.Neg()
	}
	return q
}

// rem returns the signed remainder of a/b, with the sign of a; b must not
// be zero.
func (a I128) rem(b I128) I128 {
	_, r := udivmod(a.abs(), b.abs())
	if a.IsNeg() {
		return r.Neg()
	}
	return r
}

// Cmp returns -1, 0 or 1 comparing a and b as signed numbers.
func (a I128) Cmp(b I128) int {
	if a.Hi != b.Hi {
		if int64(a.Hi) < int64(b.Hi) {
			return -1
		}
		return 1
	}
	return a.ucmp(b)
}

// ucmp returns -1, 0 or 1 comparing a and b as unsigned numbers.
func (a I128) ucmp(b I128) int {
	switch {
	case a.Hi != b.Hi:
		if a.Hi < b.Hi {
			return -1
		}
		return 1
	case a.Lo < b.Lo:
		return -1
	case a.Lo > b.Lo:
		return 1
	}
	return 0
}

// udivmod divides unsigned a by non-zero b.
func udivmod(a, b I128) (q, r I128) {
	if b.Hi == 0 {
		// Two-word by one-word long division.
		q.Hi, r.Lo = bits.Div64(0, a.Hi, b.Lo)
		q.Lo, r.Lo = bits.Div64(r.Lo, a.Lo, b.Lo)
		return q, r
	}
	// The quotient fits in one word: restoring division, one bit at a time
	// from the largest shift of b that stays inside 128 bits.
	r = a
	for i := bits.LeadingZeros64(b.Hi); i >= 0; i-- {
		sh := b.shl(uint(i))
		if r.ucmp(sh) >= 0 {
			r = r.Sub(sh)
			q.Lo |= 1 << uint(i)
		}
	}
	return q, r
}

// shl, shr and sar shift by n < 128 (Go's shifts of a word by 64 or more
// give zero).
func (a I128) shl(n uint) I128 {
	if n >= 64 {
		return I128{0, a.Lo << (n - 64)}
	}
	return I128{a.Lo << n, a.Hi<<n | a.Lo>>(64-n)}
}

func (a I128) shr(n uint) I128 {
	if n >= 64 {
		return I128{a.Hi >> (n - 64), 0}
	}
	return I128{a.Lo>>n | a.Hi<<(64-n), a.Hi >> n}
}

func (a I128) sar(n uint) I128 {
	if a.IsNeg() {
		return a.not().shr(n).not()
	}
	return a.shr(n)
}

func (a I128) not() I128 { return I128{^a.Lo, ^a.Hi} }

// Eval128 is Eval at I128: the same operations and traps, with shift counts
// taken modulo 128 and unsigned division over the 128-bit words. Rotr has
// no 128-bit form.
func Eval128(op qir.Op, a, b I128) (r I128, trap vt.TrapCode, ok bool) {
	ok = true
	switch op {
	case qir.OpAdd:
		r = a.Add(b)
	case qir.OpSub:
		r = a.Sub(b)
	case qir.OpMul:
		r = a.Mul(b)
	case qir.OpAnd:
		r = I128{a.Lo & b.Lo, a.Hi & b.Hi}
	case qir.OpOr:
		r = I128{a.Lo | b.Lo, a.Hi | b.Hi}
	case qir.OpXor:
		r = I128{a.Lo ^ b.Lo, a.Hi ^ b.Hi}
	case qir.OpShl:
		r = a.shl(uint(b.Lo & 127))
	case qir.OpShr:
		r = a.shr(uint(b.Lo & 127))
	case qir.OpSar:
		r = a.sar(uint(b.Lo & 127))
	case qir.OpNeg:
		r = a.Neg()
	case qir.OpNot:
		r = a.not()
	case qir.OpSDiv, qir.OpSRem, qir.OpUDiv, qir.OpURem:
		if b == (I128{}) {
			return I128{}, vt.TrapDivZero, false
		}
		switch op {
		case qir.OpSDiv:
			r = a.Div(b)
		case qir.OpSRem:
			r = a.rem(b)
		case qir.OpUDiv:
			r, _ = udivmod(a, b)
		default:
			_, r = udivmod(a, b)
		}
	case qir.OpSAddTrap:
		r, ok = a.SAdd(b)
	case qir.OpSSubTrap:
		r, ok = a.SSub(b)
	case qir.OpSMulTrap:
		r, ok = a.SMul(b)
	default:
		panic("sem: " + op.String() + " has no 128-bit form")
	}
	if !ok {
		return I128{}, vt.TrapOverflow, false
	}
	return r, 0, true
}

// ICmp128 evaluates an integer comparison at I128: the order of a and b,
// signed or unsigned as c asks, compared with zero.
func ICmp128(c qir.Cmp, a, b I128) bool {
	ord := a.Cmp(b)
	if c >= qir.CmpULT {
		ord, c = a.ucmp(b), c-qir.CmpULT+qir.CmpSLT
	}
	return ICmp(c, uint64(int64(ord)), 0)
}

// DecString renders a as a signed decimal number.
func (a I128) DecString() string {
	if a == (I128{}) {
		return "0"
	}
	var digits [40]byte
	i := len(digits)
	ten := I128{Lo: 10}
	for u := a.abs(); u != (I128{}); {
		q, r := udivmod(u, ten)
		i--
		digits[i] = byte('0' + r.Lo)
		u = q
	}
	if a.IsNeg() {
		i--
		digits[i] = '-'
	}
	return string(digits[i:])
}
