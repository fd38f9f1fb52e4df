package interp

import (
	"math/bits"

	"qcc/internal/qir"
	"qcc/internal/rt"
)

// canon normalizes a 64-bit word to the canonical representation of a
// narrow integer type: sign-extended to 64 bits (I1 is 0/1).
//
//go:noinline
func canon(t qir.Type, v uint64) uint64 {
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

//go:noinline
func evalBin(op qir.Op, a, b uint64) uint64 {
	switch op {
	case qir.OpAdd:
		return a + b
	case qir.OpSub:
		return a - b
	case qir.OpMul:
		return a * b
	case qir.OpAnd:
		return a & b
	case qir.OpOr:
		return a | b
	case qir.OpXor:
		return a ^ b
	case qir.OpShl:
		return a << (b & 63)
	case qir.OpShr:
		return a >> (b & 63)
	case qir.OpSar:
		return uint64(int64(a) >> (b & 63))
	case qir.OpRotr:
		return bits.RotateLeft64(a, -int(b&63))
	}
	panic("interp: bad binary op")
}

//go:noinline
func evalDiv(op qir.Op, a, b uint64) uint64 {
	switch op {
	case qir.OpSDiv:
		x, y := int64(a), int64(b)
		if x == -1<<63 && y == -1 {
			return a
		}
		return uint64(x / y)
	case qir.OpSRem:
		x, y := int64(a), int64(b)
		if x == -1<<63 && y == -1 {
			return 0
		}
		return uint64(x % y)
	case qir.OpUDiv:
		return a / b
	case qir.OpURem:
		return a % b
	}
	panic("interp: bad division op")
}

// evalTrapOp performs overflow-checked signed arithmetic at the width of t
// on canonical values.
//
//go:noinline
func evalTrapOp(op qir.Op, t qir.Type, a, b int64) (int64, bool) {
	var r int64
	switch op {
	case qir.OpSAddTrap:
		r = a + b
		if t == qir.I64 && ((r > a) != (b > 0)) {
			return 0, true
		}
	case qir.OpSSubTrap:
		r = a - b
		if t == qir.I64 && ((r < a) != (b > 0)) {
			return 0, true
		}
	case qir.OpSMulTrap:
		hi, lo := bits.Mul64(uint64(a), uint64(b))
		if a < 0 {
			hi -= uint64(b)
		}
		if b < 0 {
			hi -= uint64(a)
		}
		r = int64(lo)
		if t == qir.I64 {
			if int64(hi) != r>>63 {
				return 0, true
			}
			return r, false
		}
	default:
		panic("interp: bad trap op")
	}
	if t != qir.I64 {
		// Narrow widths: overflow iff the result does not round-trip.
		if canon(t, uint64(r)) != uint64(r) {
			return 0, true
		}
	}
	return r, false
}

func eval128(op qir.Op, a, b rt.I128) (rt.I128, error) {
	switch op {
	case qir.OpAdd:
		return a.Add(b), nil
	case qir.OpSub:
		return a.Sub(b), nil
	case qir.OpMul:
		return a.Mul(b), nil
	case qir.OpAnd:
		return rt.I128{Lo: a.Lo & b.Lo, Hi: a.Hi & b.Hi}, nil
	case qir.OpOr:
		return rt.I128{Lo: a.Lo | b.Lo, Hi: a.Hi | b.Hi}, nil
	case qir.OpXor:
		return rt.I128{Lo: a.Lo ^ b.Lo, Hi: a.Hi ^ b.Hi}, nil
	case qir.OpShl:
		return shl128(a, uint(b.Lo&127)), nil
	case qir.OpShr:
		return shr128(a, uint(b.Lo&127)), nil
	case qir.OpSar:
		return sar128(a, uint(b.Lo&127)), nil
	}
	panic("interp: bad 128-bit op")
}

func shl128(a rt.I128, n uint) rt.I128 {
	switch {
	case n == 0:
		return a
	case n < 64:
		return rt.I128{Lo: a.Lo << n, Hi: a.Hi<<n | a.Lo>>(64-n)}
	case n < 128:
		return rt.I128{Lo: 0, Hi: a.Lo << (n - 64)}
	}
	return rt.I128{}
}

func shr128(a rt.I128, n uint) rt.I128 {
	switch {
	case n == 0:
		return a
	case n < 64:
		return rt.I128{Lo: a.Lo>>n | a.Hi<<(64-n), Hi: a.Hi >> n}
	case n < 128:
		return rt.I128{Lo: a.Hi >> (n - 64), Hi: 0}
	}
	return rt.I128{}
}

func sar128(a rt.I128, n uint) rt.I128 {
	switch {
	case n == 0:
		return a
	case n < 64:
		return rt.I128{Lo: a.Lo>>n | a.Hi<<(64-n), Hi: uint64(int64(a.Hi) >> n)}
	case n < 128:
		return rt.I128{Lo: uint64(int64(a.Hi) >> (n - 64)), Hi: uint64(int64(a.Hi) >> 63)}
	}
	s := uint64(int64(a.Hi) >> 63)
	return rt.I128{Lo: s, Hi: s}
}

// eval128Trap performs overflow-checked 128-bit signed arithmetic.
func eval128Trap(op qir.Op, a, b rt.I128) (rt.I128, bool) {
	switch op {
	case qir.OpSAddTrap:
		r := a.Add(b)
		if a.IsNeg() == b.IsNeg() && r.IsNeg() != a.IsNeg() {
			return rt.I128{}, true
		}
		return r, false
	case qir.OpSSubTrap:
		r := a.Sub(b)
		if a.IsNeg() != b.IsNeg() && r.IsNeg() != a.IsNeg() {
			return rt.I128{}, true
		}
		return r, false
	case qir.OpSMulTrap:
		return a.MulCheck(b)
	}
	panic("interp: bad 128-bit trap op")
}

//go:noinline
func cmpInt(c qir.Cmp, a, b uint64) bool {
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

func cmp128(c qir.Cmp, a, b rt.I128) bool {
	switch c {
	case qir.CmpEQ:
		return a == b
	case qir.CmpNE:
		return a != b
	}
	s := a.Cmp(b)
	u := ucmp(a, b)
	switch c {
	case qir.CmpSLT:
		return s < 0
	case qir.CmpSLE:
		return s <= 0
	case qir.CmpSGT:
		return s > 0
	case qir.CmpSGE:
		return s >= 0
	case qir.CmpULT:
		return u < 0
	case qir.CmpULE:
		return u <= 0
	case qir.CmpUGT:
		return u > 0
	case qir.CmpUGE:
		return u >= 0
	}
	return false
}

func ucmp(a, b rt.I128) int {
	if a.Hi != b.Hi {
		if a.Hi < b.Hi {
			return -1
		}
		return 1
	}
	if a.Lo != b.Lo {
		if a.Lo < b.Lo {
			return -1
		}
		return 1
	}
	return 0
}

func cmpFloat(c qir.Cmp, a, b float64) bool {
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

// zext zero-extends a canonical value of type from to type to.
func zext(to, from qir.Type, lo uint64) (uint64, uint64) {
	var u uint64
	switch from {
	case qir.I1:
		u = lo & 1
	case qir.I8:
		u = uint64(uint8(lo))
	case qir.I16:
		u = uint64(uint16(lo))
	case qir.I32:
		u = uint64(uint32(lo))
	default:
		u = lo
	}
	if to == qir.I128 {
		return u, 0
	}
	return canon(to, u), 0
}

func lmulfold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}

func put32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func put64(b []byte, v uint64) {
	put32(b, uint32(v))
	put32(b[4:], uint32(v>>32))
}
