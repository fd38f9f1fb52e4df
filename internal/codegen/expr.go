package codegen

import (
	"fmt"

	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
)

// evalExpr emits code computing expression e for the current row. All
// arithmetic on user data uses the overflow-trapping operations; 128-bit
// operations stay as native I128 QIR values and are legalized per back-end,
// exactly the property the paper's FastISel fallback analysis hinges on.
func (c *Compiler) evalExpr(rc *rowCtx, e plan.Expr) (qir.Value, error) {
	b := rc.b
	switch x := e.(type) {
	case *plan.Col:
		return rc.col(x.Idx), nil
	case *plan.ConstInt, *plan.ConstDec, *plan.ConstFloat, *plan.ConstStr:
		return c.literal(b, x), nil
	case *plan.Arith:
		l, err := c.evalExpr(rc, x.L)
		if err != nil {
			return 0, err
		}
		r, err := c.evalExpr(rc, x.R)
		if err != nil {
			return 0, err
		}
		return c.evalArith(b, x, l, r)
	case *plan.Cmp:
		l, err := c.evalExpr(rc, x.L)
		if err != nil {
			return 0, err
		}
		r, err := c.evalExpr(rc, x.R)
		if err != nil {
			return 0, err
		}
		return c.evalCmp(b, x.Op, x.L.Type(), l, r)
	case *plan.Logic:
		l, err := c.evalExpr(rc, x.L)
		if err != nil {
			return 0, err
		}
		r, err := c.evalExpr(rc, x.R)
		if err != nil {
			return 0, err
		}
		if x.Op == plan.OpAnd {
			return b.Bin(qir.OpAnd, l, r), nil
		}
		return b.Bin(qir.OpOr, l, r), nil
	case *plan.Not:
		v, err := c.evalExpr(rc, x.E)
		if err != nil {
			return 0, err
		}
		one := b.ConstInt(qir.I1, 1)
		return b.Bin(qir.OpXor, v, one), nil
	case *plan.Like:
		v, err := c.evalExpr(rc, x.E)
		if err != nil {
			return 0, err
		}
		pat := c.literal(b, x)
		r := b.Call(qir.I64, rt.FnStrLike, v, pat)
		return b.Convert(qir.OpTrunc, qir.I1, r), nil
	case *plan.Between:
		v, err := c.evalExpr(rc, x.E)
		if err != nil {
			return 0, err
		}
		lo, err := c.evalExpr(rc, x.Lo)
		if err != nil {
			return 0, err
		}
		hi, err := c.evalExpr(rc, x.Hi)
		if err != nil {
			return 0, err
		}
		ge, err := c.evalCmp(b, plan.CmpGE, x.E.Type(), v, lo)
		if err != nil {
			return 0, err
		}
		le, err := c.evalCmp(b, plan.CmpLE, x.E.Type(), v, hi)
		if err != nil {
			return 0, err
		}
		return b.Bin(qir.OpAnd, ge, le), nil
	case *plan.Case:
		cond, err := c.evalExpr(rc, x.Cond)
		if err != nil {
			return 0, err
		}
		th, err := c.evalExpr(rc, x.Then)
		if err != nil {
			return 0, err
		}
		el, err := c.evalExpr(rc, x.Else)
		if err != nil {
			return 0, err
		}
		return b.Select(cond, th, el), nil
	case *plan.Cast:
		v, err := c.evalExpr(rc, x.E)
		if err != nil {
			return 0, err
		}
		return c.evalCast(b, x.E.Type(), x.To, v)
	default:
		return 0, fmt.Errorf("codegen: unsupported expression %T", e)
	}
}

func (c *Compiler) evalArith(b *qir.Builder, x *plan.Arith, l, r qir.Value) (qir.Value, error) {
	t := x.Type()
	if t == qir.F64 {
		switch x.Op {
		case plan.OpAdd:
			return b.Bin(qir.OpFAdd, l, r), nil
		case plan.OpSub:
			return b.Bin(qir.OpFSub, l, r), nil
		case plan.OpMul:
			return b.Bin(qir.OpFMul, l, r), nil
		case plan.OpDiv:
			return b.Bin(qir.OpFDiv, l, r), nil
		}
		return 0, fmt.Errorf("codegen: %% on floats")
	}
	switch x.Op {
	case plan.OpAdd:
		return b.Bin(qir.OpSAddTrap, l, r), nil
	case plan.OpSub:
		return b.Bin(qir.OpSSubTrap, l, r), nil
	case plan.OpMul:
		return b.Bin(qir.OpSMulTrap, l, r), nil
	case plan.OpDiv:
		if t == qir.I128 {
			return b.Call(qir.I128, rt.FnI128Div, l, r), nil
		}
		return b.Bin(qir.OpSDiv, l, r), nil
	case plan.OpMod:
		if t == qir.I128 {
			return b.Call(qir.I128, rt.FnI128Rem, l, r), nil
		}
		return b.Bin(qir.OpSRem, l, r), nil
	}
	return 0, fmt.Errorf("codegen: bad arith op %d", x.Op)
}

func (c *Compiler) evalCmp(b *qir.Builder, op plan.CmpOp, t qir.Type, l, r qir.Value) (qir.Value, error) {
	switch {
	case t == qir.Str:
		switch op {
		case plan.CmpEQ:
			eq := b.Call(qir.I64, rt.FnStrEq, l, r)
			return b.Convert(qir.OpTrunc, qir.I1, eq), nil
		case plan.CmpNE:
			eq := b.Call(qir.I64, rt.FnStrEq, l, r)
			one := b.ConstInt(qir.I64, 1)
			ne := b.Bin(qir.OpXor, eq, one)
			return b.Convert(qir.OpTrunc, qir.I1, ne), nil
		default:
			cv := b.Call(qir.I64, rt.FnStrCmp, l, r)
			zero := b.ConstInt(qir.I64, 0)
			return b.ICmp(op.QIR(), cv, zero), nil
		}
	case t == qir.F64:
		return b.FCmp(op.QIR(), l, r), nil
	default:
		return b.ICmp(op.QIR(), l, r), nil
	}
}

func (c *Compiler) evalCast(b *qir.Builder, from, to qir.Type, v qir.Value) (qir.Value, error) {
	if from == to {
		return v, nil
	}
	switch {
	case from.IsInt() && to.IsInt():
		if to.Size() > from.Size() {
			return b.Convert(qir.OpSExt, to, v), nil
		}
		return b.Convert(qir.OpTrunc, to, v), nil
	case from.IsInt() && to == qir.F64:
		return b.Convert(qir.OpSIToFP, qir.F64, v), nil
	case from == qir.F64 && to.IsInt():
		return b.Convert(qir.OpFPToSI, to, v), nil
	}
	return 0, fmt.Errorf("codegen: cannot cast %s to %s", from, to)
}

// hashKeys emits the hash computation for a key tuple: CRC32C folding per
// 64-bit word (strings hash via a runtime call) and a final long-mul-fold
// mix, matching the hash structure described in the paper.
func (c *Compiler) hashKeys(rc *rowCtx, keys []plan.Expr) (qir.Value, []qir.Value, error) {
	b := rc.b
	vals := make([]qir.Value, len(keys))
	h := b.ConstInt(qir.I64, 0)
	for i, k := range keys {
		v, err := c.evalExpr(rc, k)
		if err != nil {
			return 0, nil, err
		}
		vals[i] = v
		switch t := k.Type(); t {
		case qir.Str:
			sh := b.Call(qir.I64, rt.FnStrHash, v)
			h = b.Crc32(h, sh)
		case qir.I128:
			lo := b.Convert(qir.OpTrunc, qir.I64, v)
			sixtyFour := b.ConstInt(qir.I128, 64)
			hiw := b.Bin(qir.OpShr, v, sixtyFour)
			hi := b.Convert(qir.OpTrunc, qir.I64, hiw)
			h = b.Crc32(h, lo)
			h = b.Crc32(h, hi)
		case qir.F64:
			h = b.Crc32(h, b.Convert(qir.OpFBits, qir.I64, v))
		case qir.I64:
			h = b.Crc32(h, v)
		default:
			w := b.Convert(qir.OpSExt, qir.I64, v)
			h = b.Crc32(h, w)
		}
	}
	mix := b.ConstInt(qir.I64, 0x2545F4914F6CDD1D)
	h = b.LMulFold(h, mix)
	return h, vals, nil
}

// widened returns the storage type of a key slot: small integers widen to
// I64 so key comparison and sorting operate on uniform slots.
func widened(t qir.Type) qir.Type {
	switch t {
	case qir.I1, qir.I8, qir.I16, qir.I32:
		return qir.I64
	}
	return t
}

// widen emits the conversion of v to its widened slot type.
func widen(b *qir.Builder, t qir.Type, v qir.Value) qir.Value {
	if widened(t) != t {
		return b.Convert(qir.OpSExt, qir.I64, v)
	}
	return v
}

// rowLayout assigns payload slot offsets for a list of types.
type rowLayout struct {
	offs  []int64
	types []qir.Type
	width int64
}

// layoutRow computes a payload layout; every slot is 8 or 16 bytes.
func layoutRow(types []qir.Type) rowLayout {
	l := rowLayout{types: types}
	for _, t := range types {
		l.offs = append(l.offs, l.width)
		if t.Is128() {
			l.width += 16
		} else {
			l.width += 8
		}
	}
	if l.width == 0 {
		l.width = 8
	}
	return l
}

// store emits a store of slot i of the layout at base.
func (l *rowLayout) store(b *qir.Builder, base qir.Value, i int, v qir.Value) {
	addr := b.GEP(base, l.offs[i], qir.NoValue, 0)
	b.Store(addr, v)
}

// load emits a load of slot i of the layout at base.
func (l *rowLayout) load(b *qir.Builder, base qir.Value, i int) qir.Value {
	addr := b.GEP(base, l.offs[i], qir.NoValue, 0)
	return b.Load(l.types[i], addr)
}
