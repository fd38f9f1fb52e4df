package sem

import (
	"math/big"
	"testing"

	"qcc/internal/qir"
	"qcc/internal/vt"
)

// The operations under test, by index: the fuzz target reads its first
// argument as an index into this list.
var testOps = func() []opCase {
	ops := []opCase{}
	for _, op := range []qir.Op{qir.OpAdd, qir.OpSub, qir.OpMul, qir.OpSDiv, qir.OpSRem, qir.OpUDiv,
		qir.OpURem, qir.OpAnd, qir.OpOr, qir.OpXor, qir.OpShl, qir.OpShr, qir.OpSar, qir.OpRotr,
		qir.OpNeg, qir.OpNot, qir.OpSAddTrap, qir.OpSSubTrap, qir.OpSMulTrap, qir.OpZExt, qir.OpSExt, qir.OpTrunc} {
		ops = append(ops, opCase{op: op})
	}
	for c := qir.CmpEQ; c < qir.NumCmps; c++ {
		ops = append(ops, opCase{op: qir.OpICmp, cmp: c})
	}
	return ops
}()

var testWidths = []qir.Type{qir.I8, qir.I16, qir.I32, qir.I64, qir.I128}

type opCase struct {
	op  qir.Op
	cmp qir.Cmp
}

func bitsOf(t qir.Type) uint { return uint(8 * t.Size()) }

// toBig reads x as a signed number of n bits.
func toBig(x I128, n uint) *big.Int {
	v := new(big.Int).Lsh(new(big.Int).SetUint64(x.Hi), 64)
	v.Or(v, new(big.Int).SetUint64(x.Lo))
	return signed(v, n)
}

// unsigned reduces v modulo 2^n.
func unsigned(v *big.Int, n uint) *big.Int {
	return new(big.Int).Mod(v, new(big.Int).Lsh(big.NewInt(1), n))
}

// signed reduces v modulo 2^n into the signed range of n bits.
func signed(v *big.Int, n uint) *big.Int {
	u := unsigned(v, n)
	if u.Bit(int(n-1)) == 1 {
		u.Sub(u, new(big.Int).Lsh(big.NewInt(1), n))
	}
	return u
}

// fromBig is the canonical form of the n-bit value v: sign-extended to 128
// bits.
func fromBig(v *big.Int, n uint) I128 {
	u := unsigned(signed(v, n), 128)
	lo := new(big.Int).And(u, new(big.Int).SetUint64(^uint64(0)))
	return I128{Lo: lo.Uint64(), Hi: new(big.Int).Rsh(u, 64).Uint64()}
}

// bigEval is the meaning of an operation at width t in math/big: the
// operands are n-bit two's-complement numbers, results are reduced to n
// bits. What the words of narrow values mean beyond n bits is the one place
// the canonical form enters: unsigned division, unsigned comparison and
// rotation read the 64-bit word. A conversion takes its target width from
// b.
func bigEval(c opCase, t qir.Type, a, b I128) (I128, vt.TrapCode, bool) {
	n := bitsOf(t)
	w := uint(64) // the width of the word an operand occupies
	if t == qir.I128 {
		w = 128
	}
	x, y := toBig(a, n), toBig(b, n)
	ux, uy := unsigned(x, w), unsigned(y, w)
	count := uint(b.Lo & uint64(w-1))
	r := new(big.Int)
	switch c.op {
	case qir.OpAdd:
		r.Add(x, y)
	case qir.OpSub:
		r.Sub(x, y)
	case qir.OpMul:
		r.Mul(x, y)
	case qir.OpAnd:
		r.And(x, y)
	case qir.OpOr:
		r.Or(x, y)
	case qir.OpXor:
		r.Xor(x, y)
	case qir.OpShl:
		r.Lsh(x, count)
	case qir.OpShr:
		r.Rsh(unsigned(x, n), count)
	case qir.OpSar:
		r.Rsh(x, count)
	case qir.OpRotr:
		r.Or(new(big.Int).Rsh(ux, count), new(big.Int).Lsh(ux, w-count))
		r = unsigned(r, w)
	case qir.OpNeg:
		r.Neg(x)
	case qir.OpNot:
		r.Not(x)
	case qir.OpSDiv, qir.OpSRem, qir.OpUDiv, qir.OpURem:
		if y.Sign() == 0 {
			return I128{}, vt.TrapDivZero, false
		}
		switch c.op {
		case qir.OpSDiv:
			r.Quo(x, y)
		case qir.OpSRem:
			r.Rem(x, y)
		case qir.OpUDiv:
			r.Quo(ux, uy)
		default:
			r.Rem(ux, uy)
		}
	case qir.OpSAddTrap, qir.OpSSubTrap, qir.OpSMulTrap:
		switch c.op {
		case qir.OpSAddTrap:
			r.Add(x, y)
		case qir.OpSSubTrap:
			r.Sub(x, y)
		default:
			r.Mul(x, y)
		}
		if signed(r, n).Cmp(r) != 0 {
			return I128{}, vt.TrapOverflow, false
		}
	case qir.OpICmp:
		ord := x.Cmp(y)
		holds := map[qir.Cmp]bool{qir.CmpEQ: ord == 0, qir.CmpNE: ord != 0,
			qir.CmpSLT: ord < 0, qir.CmpSLE: ord <= 0, qir.CmpSGT: ord > 0, qir.CmpSGE: ord >= 0}
		ord = ux.Cmp(uy)
		for p, h := range map[qir.Cmp]bool{qir.CmpULT: ord < 0, qir.CmpULE: ord <= 0, qir.CmpUGT: ord > 0, qir.CmpUGE: ord >= 0} {
			holds[p] = h
		}
		return I128{Lo: b2u(holds[c.cmp])}, 0, true
	case qir.OpZExt:
		return fromBig(unsigned(x, n), bitsOf(convTarget(c, t, b))), 0, true
	case qir.OpSExt, qir.OpTrunc:
		return fromBig(x, bitsOf(convTarget(c, t, b))), 0, true
	}
	return fromBig(r, n), 0, true
}

// convTarget is the target type of a conversion from t, chosen by b among
// the types the conversion allows.
func convTarget(c opCase, t qir.Type, b I128) qir.Type {
	var ts []qir.Type
	for _, u := range testWidths {
		if c.op == qir.OpTrunc && u < t || c.op != qir.OpTrunc && u > t {
			ts = append(ts, u)
		}
	}
	if len(ts) == 0 {
		return qir.Void
	}
	return ts[b.Lo%uint64(len(ts))]
}

// semEval is the package's answer for the same question.
func semEval(c opCase, t qir.Type, a, b I128) (I128, vt.TrapCode, bool) {
	switch {
	case c.op == qir.OpICmp && t == qir.I128:
		return I128{Lo: b2u(ICmp128(c.cmp, a, b))}, 0, true
	case c.op == qir.OpICmp:
		return I128{Lo: b2u(ICmp(c.cmp, a.Lo, b.Lo))}, 0, true
	case c.op == qir.OpZExt || c.op == qir.OpSExt || c.op == qir.OpTrunc:
		to := convTarget(c, t, b)
		lo, hi := Convert(c.op, to, t, a.Lo)
		if to != qir.I128 {
			hi = uint64(int64(lo) >> 63)
		}
		return I128{Lo: lo, Hi: hi}, 0, true
	case t == qir.I128:
		return Eval128(c.op, a, b)
	}
	r, trap, ok := Eval(c.op, t, a.Lo, b.Lo)
	return I128{Lo: r, Hi: uint64(int64(r) >> 63)}, trap, ok
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// takes reports whether the operation has a form at width t.
func takes(c opCase, t qir.Type, b I128) bool {
	switch c.op {
	case qir.OpRotr:
		return t != qir.I128
	case qir.OpZExt, qir.OpSExt, qir.OpTrunc:
		return convTarget(c, t, b) != qir.Void
	}
	return true
}

// check compares sem with math/big on one (operation, width, operands).
func check(t *testing.T, c opCase, w qir.Type, a, b I128) {
	t.Helper()
	if w != qir.I128 {
		a, b = fromBig(toBig(a, 64), bitsOf(w)), fromBig(toBig(b, 64), bitsOf(w))
	}
	if !takes(c, w, b) {
		return
	}
	got, gotTrap, gotOK := semEval(c, w, a, b)
	want, wantTrap, wantOK := bigEval(c, w, a, b)
	if gotOK != wantOK || !gotOK && gotTrap != wantTrap || gotOK && got != want {
		name := c.op.String()
		if c.op == qir.OpICmp {
			name += " " + c.cmp.String()
		}
		t.Errorf("%s %s (%#x:%#x, %#x:%#x): sem %#x:%#x %v %s, math/big %#x:%#x %v %s", name, w,
			a.Hi, a.Lo, b.Hi, b.Lo, got.Hi, got.Lo, gotOK, gotTrap, want.Hi, want.Lo, wantOK, wantTrap)
	}
}

// edgeGrid is the operand grid TestOpSemantics sweeps: 0, ±1, every width's
// minimum and maximum, the shift counts 0, 1, N-1 and N of every width, and
// the 128-bit extremes.
func edgeGrid() []I128 {
	vs := []int64{0, 1, -1}
	for _, n := range []int64{8, 16, 32, 64} {
		vs = append(vs, -1<<(n-1), 1<<(n-1)-1, n-1, n)
	}
	var out []I128
	for _, v := range vs {
		out = append(out, I128{Lo: uint64(v), Hi: uint64(v >> 63)})
	}
	return append(out, I128{Lo: 127}, I128{Lo: 128}, I128{Hi: 1}, I128{Hi: 1 << 63},
		I128{Lo: ^uint64(0), Hi: ^uint64(0) >> 1})
}

// TestEdgeGrid holds every operation at every width to math/big over the
// edge grid.
func TestEdgeGrid(t *testing.T) {
	grid := edgeGrid()
	for _, c := range testOps {
		for _, w := range testWidths {
			for _, a := range grid {
				for _, b := range grid {
					check(t, c, w, a, b)
				}
			}
		}
	}
}

// FuzzSem compares sem with a math/big evaluation of random (operation,
// width, operands). The committed corpus holds every operation at every
// width on the minimum and -1.
func FuzzSem(f *testing.F) {
	f.Fuzz(func(t *testing.T, op, width uint8, alo, ahi, blo, bhi uint64) {
		check(t, testOps[int(op)%len(testOps)], testWidths[int(width)%len(testWidths)],
			I128{Lo: alo, Hi: ahi}, I128{Lo: blo, Hi: bhi})
	})
}

func TestMulWideS(t *testing.T) {
	for _, a := range edgeGrid() {
		for _, b := range edgeGrid() {
			hi, lo := MulWideS(a.Lo, b.Lo)
			want := fromBig(new(big.Int).Mul(toBig(a, 64), toBig(b, 64)), 128)
			if (I128{Lo: lo, Hi: hi}) != want {
				t.Errorf("MulWideS(%#x, %#x) = %#x:%#x, want %#x:%#x", a.Lo, b.Lo, hi, lo, want.Hi, want.Lo)
			}
		}
	}
}

func TestDecString(t *testing.T) {
	for _, v := range edgeGrid() {
		if got, want := v.DecString(), toBig(v, 128).String(); got != want {
			t.Errorf("DecString(%#x:%#x) = %s, want %s", v.Hi, v.Lo, got, want)
		}
	}
}
