package direct

import (
	"fmt"

	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vt"
)

// mov emits a register move unless source and destination coincide.
func (g *codegen) mov(d, s int16) {
	if d != s {
		g.emit(vt.Instr{Op: vt.MovRR, RD: uint8(d), RA: uint8(s)})
	}
}

// binRR emits d = a op b on the two-address target: mov d,a; op d,b.
func (g *codegen) binRR(op vt.Op, d, a, b int16) {
	g.mov(d, a)
	g.emit(vt.Instr{Op: op, RD: uint8(d), RA: uint8(d), RB: uint8(b)})
}

// binRI emits d = a op imm.
func (g *codegen) binRI(op vt.Op, d, a int16, imm int64) {
	g.mov(d, a)
	g.emit(vt.Instr{Op: op, RD: uint8(d), RA: uint8(d), Imm: imm})
}

// canonReg truncates/sign-extends register r to the canonical form of a
// narrow type.
func (g *codegen) canonReg(t qir.Type, r int16) {
	switch t {
	case qir.I1:
		g.emit(vt.Instr{Op: vt.AndI, RD: uint8(r), RA: uint8(r), Imm: 1})
	case qir.I8:
		g.binRI(vt.ShlI, r, r, 56)
		g.emit(vt.Instr{Op: vt.SarI, RD: uint8(r), RA: uint8(r), Imm: 56})
	case qir.I16:
		g.binRI(vt.ShlI, r, r, 48)
		g.emit(vt.Instr{Op: vt.SarI, RD: uint8(r), RA: uint8(r), Imm: 48})
	case qir.I32:
		g.binRI(vt.ShlI, r, r, 32)
		g.emit(vt.Instr{Op: vt.SarI, RD: uint8(r), RA: uint8(r), Imm: 32})
	}
}

func isNarrow(t qir.Type) bool {
	return t == qir.I1 || t == qir.I8 || t == qir.I16 || t == qir.I32
}

var binOpMap = map[qir.Op]vt.Op{
	qir.OpAdd: vt.Add, qir.OpSub: vt.Sub, qir.OpMul: vt.Mul,
	qir.OpAnd: vt.And, qir.OpOr: vt.Or, qir.OpXor: vt.Xor,
	qir.OpShl: vt.Shl, qir.OpShr: vt.Shr, qir.OpSar: vt.Sar,
	qir.OpRotr: vt.Rotr,
	qir.OpSDiv: vt.SDiv, qir.OpSRem: vt.SRem,
	qir.OpUDiv: vt.UDiv, qir.OpURem: vt.URem,
}

func (g *codegen) genInstr(v qir.Value, in *qir.Instr) error {
	switch in.Op {
	case qir.OpConst:
		d := g.defGPR(v)
		g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(d), Imm: in.Imm})
		g.finishDef(v)
	case qir.OpConst128:
		lo, hi := g.f.Const128(v)
		dlo, dhi := g.defPair(v)
		g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(dlo), Imm: int64(lo)})
		g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(dhi), Imm: int64(hi)})
		g.finishDef(v)
	case qir.OpConstStr:
		lo, hi := g.env.DB.InternString(g.mod.Strings[in.Imm])
		dlo, dhi := g.defPair(v)
		g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(dlo), Imm: int64(lo)})
		g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(dhi), Imm: int64(hi)})
		g.finishDef(v)
	case qir.OpConstF:
		d := g.defFPR(v)
		g.emit(vt.Instr{Op: vt.FMovRI, RD: uint8(d), Imm: in.Imm})
		g.finishDef(v)
	case qir.OpConstPool:
		// The slot address is a stable property of the DB; the value is
		// whatever BindConstPool wrote there, read at execution time. The
		// pool area is allocated in NewDB, so the loads need no checks.
		// Slots hold canonical sign-extended values: a 64-bit load is the
		// canonical register form for every scalar type.
		t := g.tempGPR()
		g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(t), Imm: int64(g.env.DB.ConstPoolAddr(int(in.Imm)))})
		switch in.Type {
		case qir.I128, qir.Str:
			dlo, dhi := g.defPair(v)
			g.emit(vt.Instr{Op: vt.LoadU64, RD: uint8(dlo), RA: uint8(t)})
			g.emit(vt.Instr{Op: vt.LoadU64, RD: uint8(dhi), RA: uint8(t), Imm: 8})
		case qir.F64:
			d := g.defFPR(v)
			g.emit(vt.Instr{Op: vt.FLoadU, RD: uint8(d), RA: uint8(t)})
		default:
			d := g.defGPR(v)
			g.emit(vt.Instr{Op: vt.LoadU64, RD: uint8(d), RA: uint8(t)})
		}
		g.finishDef(v)
	case qir.OpNull:
		d := g.defGPR(v)
		g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(d), Imm: 0})
		g.finishDef(v)
	case qir.OpFuncAddr:
		d := g.defGPR(v)
		g.asm.EmitMovSym(uint8(d), int32(in.Aux))
		g.finishDef(v)

	case qir.OpAdd, qir.OpSub, qir.OpMul, qir.OpAnd, qir.OpOr, qir.OpXor,
		qir.OpShl, qir.OpShr, qir.OpSar, qir.OpRotr,
		qir.OpSDiv, qir.OpSRem, qir.OpUDiv, qir.OpURem:
		if in.Type == qir.I128 {
			return g.gen128Bin(v, in)
		}
		a := g.useGPR(in.A)
		b := g.useGPR(in.B)
		d := g.defGPR(v)
		vop := binOpMap[in.Op]
		if in.Op == qir.OpShr && isNarrow(in.Type) {
			// Logical shift right needs a zero-extended operand.
			g.mov(d, a)
			g.zextReg(in.Type, d)
			g.emit(vt.Instr{Op: vt.Shr, RD: uint8(d), RA: uint8(d), RB: uint8(b)})
		} else {
			g.binRR(vop, d, a, b)
		}
		if isNarrow(in.Type) {
			switch in.Op {
			case qir.OpAnd, qir.OpOr, qir.OpSar, qir.OpSRem:
				// Canonical-form preserving.
			default:
				g.canonReg(in.Type, d)
			}
		}
		g.finishDef(v)

	case qir.OpNeg:
		if in.Type == qir.I128 {
			alo, ahi := g.usePair(in.A)
			dlo, dhi := g.defPair(v)
			// d = 0 - a
			g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(dlo), Imm: 0})
			g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(dhi), Imm: 0})
			t := g.tempGPR()
			// borrow = (0 <u a.lo)
			g.emit(vt.Instr{Op: vt.SetCC, Cond: vt.CondULT, RD: uint8(t), RA: uint8(dlo), RB: uint8(alo)})
			g.emit(vt.Instr{Op: vt.Sub, RD: uint8(dlo), RA: uint8(dlo), RB: uint8(alo)})
			g.emit(vt.Instr{Op: vt.Sub, RD: uint8(dhi), RA: uint8(dhi), RB: uint8(ahi)})
			g.emit(vt.Instr{Op: vt.Sub, RD: uint8(dhi), RA: uint8(dhi), RB: uint8(t)})
			g.finishDef(v)
			return nil
		}
		if in.Type == qir.F64 {
			a := g.useFPR(in.A)
			d := g.defFPR(v)
			t := g.tempGPR()
			g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(t), Imm: -1 << 63})
			t2 := g.tempGPR()
			g.emit(vt.Instr{Op: vt.MovRF, RD: uint8(t2), RA: uint8(a)})
			g.emit(vt.Instr{Op: vt.Xor, RD: uint8(t2), RA: uint8(t2), RB: uint8(t)})
			g.emit(vt.Instr{Op: vt.MovFR, RD: uint8(d), RA: uint8(t2)})
			g.finishDef(v)
			return nil
		}
		a := g.useGPR(in.A)
		d := g.defGPR(v)
		g.mov(d, a)
		g.emit(vt.Instr{Op: vt.Neg, RD: uint8(d), RA: uint8(d)})
		g.canonReg(in.Type, d)
		g.finishDef(v)

	case qir.OpNot:
		a := g.useGPR(in.A)
		d := g.defGPR(v)
		g.mov(d, a)
		g.emit(vt.Instr{Op: vt.Not, RD: uint8(d), RA: uint8(d)})
		g.canonReg(in.Type, d)
		g.finishDef(v)

	case qir.OpSAddTrap, qir.OpSSubTrap, qir.OpSMulTrap:
		return g.genTrapArith(v, in)

	case qir.OpICmp:
		return g.genICmp(v, in)

	case qir.OpZExt:
		from := g.f.ValueType(in.A)
		if from == qir.I128 {
			return fmt.Errorf("zext from i128: %w", errUnsupported)
		}
		if in.Type == qir.I128 {
			a := g.useGPR(in.A)
			dlo, dhi := g.defPair(v)
			g.mov(dlo, a)
			g.zextReg(from, dlo)
			g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(dhi), Imm: 0})
		} else {
			a := g.useGPR(in.A)
			d := g.defGPR(v)
			g.mov(d, a)
			g.zextReg(from, d)
		}
		g.finishDef(v)

	case qir.OpSExt:
		from := g.f.ValueType(in.A)
		if from == qir.I128 {
			return fmt.Errorf("sext from i128: %w", errUnsupported)
		}
		a := g.useGPR(in.A)
		if in.Type == qir.I128 {
			dlo, dhi := g.defPair(v)
			g.mov(dlo, a)
			g.mov(dhi, a)
			g.emit(vt.Instr{Op: vt.SarI, RD: uint8(dhi), RA: uint8(dhi), Imm: 63})
		} else {
			d := g.defGPR(v)
			g.mov(d, a) // canonical form is already sign-extended
		}
		g.finishDef(v)

	case qir.OpTrunc:
		if g.f.ValueType(in.A) == qir.I128 {
			alo, _ := g.usePair(in.A)
			d := g.defGPR(v)
			g.mov(d, alo)
			g.canonReg(in.Type, d)
		} else {
			a := g.useGPR(in.A)
			d := g.defGPR(v)
			g.mov(d, a)
			g.canonReg(in.Type, d)
		}
		g.finishDef(v)

	case qir.OpFAdd, qir.OpFSub, qir.OpFMul, qir.OpFDiv:
		a := g.useFPR(in.A)
		b := g.useFPR(in.B)
		d := g.defFPR(v)
		var op vt.Op
		switch in.Op {
		case qir.OpFAdd:
			op = vt.FAdd
		case qir.OpFSub:
			op = vt.FSub
		case qir.OpFMul:
			op = vt.FMul
		default:
			op = vt.FDiv
		}
		if d != a {
			g.emit(vt.Instr{Op: vt.FMovRR, RD: uint8(d), RA: uint8(a)})
		}
		g.emit(vt.Instr{Op: op, RD: uint8(d), RA: uint8(d), RB: uint8(b)})
		g.finishDef(v)

	case qir.OpFCmp:
		a := g.useFPR(in.A)
		b := g.useFPR(in.B)
		d := g.defGPR(v)
		g.emit(vt.Instr{Op: vt.FCmp, Cond: vt.Cond(in.Cmp()), RD: uint8(d), RA: uint8(a), RB: uint8(b)})
		g.finishDef(v)

	case qir.OpSIToFP:
		a := g.useGPR(in.A)
		d := g.defFPR(v)
		g.emit(vt.Instr{Op: vt.CvtSI2F, RD: uint8(d), RA: uint8(a)})
		g.finishDef(v)

	case qir.OpFPToSI:
		a := g.useFPR(in.A)
		d := g.defGPR(v)
		g.emit(vt.Instr{Op: vt.CvtF2SI, RD: uint8(d), RA: uint8(a)})
		g.canonReg(in.Type, d)
		g.finishDef(v)

	case qir.OpFBits:
		a := g.useFPR(in.A)
		d := g.defGPR(v)
		g.emit(vt.Instr{Op: vt.MovRF, RD: uint8(d), RA: uint8(a)})
		g.finishDef(v)

	case qir.OpBitsF:
		a := g.useGPR(in.A)
		d := g.defFPR(v)
		g.emit(vt.Instr{Op: vt.MovFR, RD: uint8(d), RA: uint8(a)})
		g.finishDef(v)

	case qir.OpCrc32:
		a := g.useGPR(in.A)
		b := g.useGPR(in.B)
		d := g.defGPR(v)
		g.binRR(vt.Crc32, d, a, b)
		g.finishDef(v)

	case qir.OpLMulFold:
		a := g.useGPR(in.A)
		b := g.useGPR(in.B)
		d := g.defGPR(v)
		t := g.tempGPR()
		g.emit(vt.Instr{Op: vt.MulWideU, RD: uint8(d), RC: uint8(t), RA: uint8(a), RB: uint8(b)})
		g.emit(vt.Instr{Op: vt.Xor, RD: uint8(d), RA: uint8(d), RB: uint8(t)})
		g.finishDef(v)

	case qir.OpGEP:
		base := g.useGPR(in.A)
		d := g.defGPR(v)
		if in.B != qir.NoValue {
			idx := g.useGPR(in.B)
			t := g.tempGPR()
			g.mov(t, idx)
			if in.Aux != 1 {
				g.emit(vt.Instr{Op: vt.MulI, RD: uint8(t), RA: uint8(t), Imm: int64(in.Aux)})
			}
			g.emit(vt.Instr{Op: vt.Lea, RD: uint8(d), RA: uint8(base), Imm: in.Imm})
			g.emit(vt.Instr{Op: vt.Add, RD: uint8(d), RA: uint8(d), RB: uint8(t)})
		} else {
			g.emit(vt.Instr{Op: vt.Lea, RD: uint8(d), RA: uint8(base), Imm: in.Imm})
		}
		g.finishDef(v)

	case qir.OpLoad:
		addr := g.useGPR(in.A)
		switch in.Type {
		case qir.I128, qir.Str:
			dlo, dhi := g.defPair(v)
			g.emit(vt.Instr{Op: vt.Load64.UncheckedIf(in.Unchecked()), RD: uint8(dlo), RA: uint8(addr)})
			g.emit(vt.Instr{Op: vt.Load64.UncheckedIf(in.Unchecked()), RD: uint8(dhi), RA: uint8(addr), Imm: 8})
		case qir.F64:
			d := g.defFPR(v)
			g.emit(vt.Instr{Op: vt.FLoad.UncheckedIf(in.Unchecked()), RD: uint8(d), RA: uint8(addr)})
		default:
			d := g.defGPR(v)
			g.emit(vt.Instr{Op: loadOp(in.Type).UncheckedIf(in.Unchecked()), RD: uint8(d), RA: uint8(addr)})
			if in.Type == qir.I1 {
				g.emit(vt.Instr{Op: vt.AndI, RD: uint8(d), RA: uint8(d), Imm: 1})
			}
		}
		g.finishDef(v)

	case qir.OpStore:
		addr := g.useGPR(in.A)
		vt_ := g.f.ValueType(in.B)
		switch vt_ {
		case qir.I128, qir.Str:
			lo, hi := g.usePair(in.B)
			g.emit(vt.Instr{Op: vt.Store64.UncheckedIf(in.Unchecked()), RA: uint8(addr), RB: uint8(lo)})
			g.emit(vt.Instr{Op: vt.Store64.UncheckedIf(in.Unchecked()), RA: uint8(addr), RB: uint8(hi), Imm: 8})
		case qir.F64:
			fv := g.useFPR(in.B)
			g.emit(vt.Instr{Op: vt.FStore.UncheckedIf(in.Unchecked()), RA: uint8(addr), RB: uint8(fv)})
		default:
			val := g.useGPR(in.B)
			g.emit(vt.Instr{Op: storeOp(vt_).UncheckedIf(in.Unchecked()), RA: uint8(addr), RB: uint8(val)})
		}
		g.unpinAll()

	case qir.OpSelect:
		return g.genSelect(v, in)

	case qir.OpCall:
		return g.genCall(v, in)

	default:
		return fmt.Errorf("op %s: %w", in.Op, errUnsupported)
	}
	return nil
}

// zextReg zero-extends register r from the given narrow type.
func (g *codegen) zextReg(from qir.Type, r int16) {
	switch from {
	case qir.I1:
		g.emit(vt.Instr{Op: vt.AndI, RD: uint8(r), RA: uint8(r), Imm: 1})
	case qir.I8:
		g.emit(vt.Instr{Op: vt.AndI, RD: uint8(r), RA: uint8(r), Imm: 0xFF})
	case qir.I16:
		g.emit(vt.Instr{Op: vt.AndI, RD: uint8(r), RA: uint8(r), Imm: 0xFFFF})
	case qir.I32:
		g.emit(vt.Instr{Op: vt.AndI, RD: uint8(r), RA: uint8(r), Imm: 0xFFFFFFFF})
	}
}

func loadOp(t qir.Type) vt.Op {
	switch t {
	case qir.I1:
		return vt.Load8
	case qir.I8:
		return vt.Load8S
	case qir.I16:
		return vt.Load16S
	case qir.I32:
		return vt.Load32S
	default:
		return vt.Load64
	}
}

func storeOp(t qir.Type) vt.Op {
	switch t {
	case qir.I1, qir.I8:
		return vt.Store8
	case qir.I16:
		return vt.Store16
	case qir.I32:
		return vt.Store32
	default:
		return vt.Store64
	}
}

// gen128Bin lowers 128-bit add/sub/mul/logic/shift.
func (g *codegen) gen128Bin(v qir.Value, in *qir.Instr) error {
	switch in.Op {
	case qir.OpAdd, qir.OpSub:
		alo, ahi := g.usePair(in.A)
		blo, bhi := g.usePair(in.B)
		dlo, dhi := g.defPair(v)
		t := g.tempGPR()
		if in.Op == qir.OpAdd {
			g.binRR(vt.Add, dlo, alo, blo)
			g.emit(vt.Instr{Op: vt.SetCC, Cond: vt.CondULT, RD: uint8(t), RA: uint8(dlo), RB: uint8(alo)})
			g.binRR(vt.Add, dhi, ahi, bhi)
			g.emit(vt.Instr{Op: vt.Add, RD: uint8(dhi), RA: uint8(dhi), RB: uint8(t)})
		} else {
			g.emit(vt.Instr{Op: vt.SetCC, Cond: vt.CondULT, RD: uint8(t), RA: uint8(alo), RB: uint8(blo)})
			g.binRR(vt.Sub, dlo, alo, blo)
			g.binRR(vt.Sub, dhi, ahi, bhi)
			g.emit(vt.Instr{Op: vt.Sub, RD: uint8(dhi), RA: uint8(dhi), RB: uint8(t)})
		}
		g.finishDef(v)
	case qir.OpMul:
		alo, ahi := g.usePair(in.A)
		blo, bhi := g.usePair(in.B)
		dlo, dhi := g.defPair(v)
		t := g.tempGPR()
		g.emit(vt.Instr{Op: vt.MulWideU, RD: uint8(dlo), RC: uint8(dhi), RA: uint8(alo), RB: uint8(blo)})
		g.mov(t, alo)
		g.emit(vt.Instr{Op: vt.Mul, RD: uint8(t), RA: uint8(t), RB: uint8(bhi)})
		g.emit(vt.Instr{Op: vt.Add, RD: uint8(dhi), RA: uint8(dhi), RB: uint8(t)})
		g.mov(t, ahi)
		g.emit(vt.Instr{Op: vt.Mul, RD: uint8(t), RA: uint8(t), RB: uint8(blo)})
		g.emit(vt.Instr{Op: vt.Add, RD: uint8(dhi), RA: uint8(dhi), RB: uint8(t)})
		g.finishDef(v)
	case qir.OpAnd, qir.OpOr, qir.OpXor:
		alo, ahi := g.usePair(in.A)
		blo, bhi := g.usePair(in.B)
		dlo, dhi := g.defPair(v)
		op := binOpMap[in.Op]
		g.binRR(op, dlo, alo, blo)
		g.binRR(op, dhi, ahi, bhi)
		g.finishDef(v)
	case qir.OpShl, qir.OpShr, qir.OpSar:
		// Only constant shift amounts are generated by the query
		// compiler (hash hi-extraction); support those.
		bi := &g.f.Instrs[in.B]
		if bi.Op != qir.OpConst {
			return fmt.Errorf("dynamic 128-bit shift: %w", errUnsupported)
		}
		k := uint(bi.Imm) & 127
		alo, ahi := g.usePair(in.A)
		dlo, dhi := g.defPair(v)
		g.gen128ShiftConst(in.Op, dlo, dhi, alo, ahi, k)
		g.finishDef(v)
	default:
		return fmt.Errorf("128-bit %s: %w", in.Op, errUnsupported)
	}
	return nil
}

func (g *codegen) gen128ShiftConst(op qir.Op, dlo, dhi, alo, ahi int16, k uint) {
	switch {
	case k == 0:
		g.mov(dlo, alo)
		g.mov(dhi, ahi)
	case op == qir.OpShr && k == 64:
		g.mov(dlo, ahi)
		g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(dhi), Imm: 0})
	case op == qir.OpSar && k == 64:
		g.mov(dlo, ahi)
		g.mov(dhi, ahi)
		g.emit(vt.Instr{Op: vt.SarI, RD: uint8(dhi), RA: uint8(dhi), Imm: 63})
	case op == qir.OpShl && k == 64:
		g.mov(dhi, alo)
		g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(dlo), Imm: 0})
	case k < 64 && op == qir.OpShl:
		// dhi = ahi<<k | alo>>(64-k); dlo = alo<<k
		t := g.tempGPR()
		g.mov(t, alo)
		g.emit(vt.Instr{Op: vt.ShrI, RD: uint8(t), RA: uint8(t), Imm: int64(64 - k)})
		g.binRI(vt.ShlI, dhi, ahi, int64(k))
		g.emit(vt.Instr{Op: vt.Or, RD: uint8(dhi), RA: uint8(dhi), RB: uint8(t)})
		g.binRI(vt.ShlI, dlo, alo, int64(k))
	case k < 64:
		// shr/sar: dlo = alo>>k | ahi<<(64-k); dhi = ahi >>(s) k
		t := g.tempGPR()
		g.mov(t, ahi)
		g.emit(vt.Instr{Op: vt.ShlI, RD: uint8(t), RA: uint8(t), Imm: int64(64 - k)})
		g.binRI(vt.ShrI, dlo, alo, int64(k))
		g.emit(vt.Instr{Op: vt.Or, RD: uint8(dlo), RA: uint8(dlo), RB: uint8(t)})
		shift := vt.ShrI
		if op == qir.OpSar {
			shift = vt.SarI
		}
		g.binRI(shift, dhi, ahi, int64(k))
	case op == qir.OpShl: // k > 64
		g.binRI(vt.ShlI, dhi, alo, int64(k-64))
		g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(dlo), Imm: 0})
	case op == qir.OpShr:
		g.binRI(vt.ShrI, dlo, ahi, int64(k-64))
		g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(dhi), Imm: 0})
	default: // sar, k > 64
		g.binRI(vt.SarI, dlo, ahi, int64(k-64))
		g.binRI(vt.SarI, dhi, ahi, 63)
	}
}

// genTrapArith lowers the overflow-checking arithmetic (SQL semantics).
func (g *codegen) genTrapArith(v qir.Value, in *qir.Instr) error {
	if in.Type == qir.I128 {
		return g.gen128TrapArith(v, in)
	}
	if isNarrow(in.Type) {
		// Do the operation at 64 bits and trap when the result does not
		// round-trip through the narrow width.
		a := g.useGPR(in.A)
		b := g.useGPR(in.B)
		d := g.defGPR(v)
		var op vt.Op
		switch in.Op {
		case qir.OpSAddTrap:
			op = vt.Add
		case qir.OpSSubTrap:
			op = vt.Sub
		default:
			op = vt.Mul
		}
		g.binRR(op, d, a, b)
		t := g.tempGPR()
		g.mov(t, d)
		g.canonReg(in.Type, t)
		t2 := g.tempGPR()
		g.emit(vt.Instr{Op: vt.SetCC, Cond: vt.CondNE, RD: uint8(t2), RA: uint8(t), RB: uint8(d)})
		g.emit(vt.Instr{Op: vt.TrapNZ, RA: uint8(t2), Imm: int64(vt.TrapOverflow)})
		g.mov(d, t)
		g.finishDef(v)
		return nil
	}
	// 64-bit.
	a := g.useGPR(in.A)
	b := g.useGPR(in.B)
	d := g.defGPR(v)
	switch in.Op {
	case qir.OpSAddTrap, qir.OpSSubTrap:
		var op vt.Op = vt.Add
		if in.Op == qir.OpSSubTrap {
			op = vt.Sub
		}
		g.binRR(op, d, a, b)
		// add: overflow iff (d^a)&(d^b) < 0; sub: (a^b)&(d^a) < 0.
		t1 := g.tempGPR()
		t2 := g.tempGPR()
		if in.Op == qir.OpSAddTrap {
			g.binRR(vt.Xor, t1, d, a)
			g.binRR(vt.Xor, t2, d, b)
		} else {
			g.binRR(vt.Xor, t1, a, b)
			g.binRR(vt.Xor, t2, d, a)
		}
		g.emit(vt.Instr{Op: vt.And, RD: uint8(t1), RA: uint8(t1), RB: uint8(t2)})
		g.emit(vt.Instr{Op: vt.ShrI, RD: uint8(t1), RA: uint8(t1), Imm: 63})
		g.emit(vt.Instr{Op: vt.TrapNZ, RA: uint8(t1), Imm: int64(vt.TrapOverflow)})
	case qir.OpSMulTrap:
		t := g.tempGPR()
		g.emit(vt.Instr{Op: vt.MulWideS, RD: uint8(d), RC: uint8(t), RA: uint8(a), RB: uint8(b)})
		t2 := g.tempGPR()
		g.mov(t2, d)
		g.emit(vt.Instr{Op: vt.SarI, RD: uint8(t2), RA: uint8(t2), Imm: 63})
		g.emit(vt.Instr{Op: vt.Xor, RD: uint8(t2), RA: uint8(t2), RB: uint8(t)})
		g.emit(vt.Instr{Op: vt.TrapNZ, RA: uint8(t2), Imm: int64(vt.TrapOverflow)})
	}
	g.finishDef(v)
	return nil
}

func (g *codegen) gen128TrapArith(v qir.Value, in *qir.Instr) error {
	if in.Op == qir.OpSMulTrap {
		// The hand-optimized 128-bit multiplication helper (paper
		// Sec. V-A1) lives in the runtime.
		return g.genHelperCall(v, rt.FnI128MulOv, []qir.Value{in.A, in.B})
	}
	alo, ahi := g.usePair(in.A)
	blo, bhi := g.usePair(in.B)
	dlo, dhi := g.defPair(v)
	t := g.tempGPR()
	if in.Op == qir.OpSAddTrap {
		g.binRR(vt.Add, dlo, alo, blo)
		g.emit(vt.Instr{Op: vt.SetCC, Cond: vt.CondULT, RD: uint8(t), RA: uint8(dlo), RB: uint8(alo)})
		g.binRR(vt.Add, dhi, ahi, bhi)
		g.emit(vt.Instr{Op: vt.Add, RD: uint8(dhi), RA: uint8(dhi), RB: uint8(t)})
		// Signed overflow on the high words.
		t2 := g.tempGPR()
		g.binRR(vt.Xor, t, dhi, ahi)
		g.binRR(vt.Xor, t2, dhi, bhi)
		g.emit(vt.Instr{Op: vt.And, RD: uint8(t), RA: uint8(t), RB: uint8(t2)})
		g.emit(vt.Instr{Op: vt.ShrI, RD: uint8(t), RA: uint8(t), Imm: 63})
		g.emit(vt.Instr{Op: vt.TrapNZ, RA: uint8(t), Imm: int64(vt.TrapOverflow)})
	} else {
		g.emit(vt.Instr{Op: vt.SetCC, Cond: vt.CondULT, RD: uint8(t), RA: uint8(alo), RB: uint8(blo)})
		g.binRR(vt.Sub, dlo, alo, blo)
		g.binRR(vt.Sub, dhi, ahi, bhi)
		g.emit(vt.Instr{Op: vt.Sub, RD: uint8(dhi), RA: uint8(dhi), RB: uint8(t)})
		t2 := g.tempGPR()
		g.binRR(vt.Xor, t, ahi, bhi)
		g.binRR(vt.Xor, t2, dhi, ahi)
		g.emit(vt.Instr{Op: vt.And, RD: uint8(t), RA: uint8(t), RB: uint8(t2)})
		g.emit(vt.Instr{Op: vt.ShrI, RD: uint8(t), RA: uint8(t), Imm: 63})
		g.emit(vt.Instr{Op: vt.TrapNZ, RA: uint8(t), Imm: int64(vt.TrapOverflow)})
	}
	g.finishDef(v)
	return nil
}

// strictCond maps a predicate to its strict form (for high-word compare).
func strictCond(c qir.Cmp) vt.Cond {
	switch c {
	case qir.CmpSLT, qir.CmpSLE:
		return vt.CondSLT
	case qir.CmpSGT, qir.CmpSGE:
		return vt.CondSGT
	case qir.CmpULT, qir.CmpULE:
		return vt.CondULT
	case qir.CmpUGT, qir.CmpUGE:
		return vt.CondUGT
	}
	panic("direct: strictCond on equality")
}

// unsignedLo maps a predicate to the unsigned low-word form.
func unsignedLo(c qir.Cmp) vt.Cond {
	switch c {
	case qir.CmpSLT, qir.CmpULT:
		return vt.CondULT
	case qir.CmpSLE, qir.CmpULE:
		return vt.CondULE
	case qir.CmpSGT, qir.CmpUGT:
		return vt.CondUGT
	case qir.CmpSGE, qir.CmpUGE:
		return vt.CondUGE
	}
	panic("direct: unsignedLo on equality")
}

func (g *codegen) genICmp(v qir.Value, in *qir.Instr) error {
	if g.f.ValueType(in.A) != qir.I128 {
		a := g.useGPR(in.A)
		b := g.useGPR(in.B)
		d := g.defGPR(v)
		g.emit(vt.Instr{Op: vt.SetCC, Cond: vt.Cond(in.Cmp()), RD: uint8(d), RA: uint8(a), RB: uint8(b)})
		g.finishDef(v)
		return nil
	}
	alo, ahi := g.usePair(in.A)
	blo, bhi := g.usePair(in.B)
	d := g.defGPR(v)
	switch c := in.Cmp(); c {
	case qir.CmpEQ, qir.CmpNE:
		t1 := g.tempGPR()
		t2 := g.tempGPR()
		g.binRR(vt.Xor, t1, alo, blo)
		g.binRR(vt.Xor, t2, ahi, bhi)
		g.emit(vt.Instr{Op: vt.Or, RD: uint8(t1), RA: uint8(t1), RB: uint8(t2)})
		g.emit(vt.Instr{Op: vt.MovRI, RD: uint8(t2), Imm: 0})
		cond := vt.CondEQ
		if c == qir.CmpNE {
			cond = vt.CondNE
		}
		g.emit(vt.Instr{Op: vt.SetCC, Cond: cond, RD: uint8(d), RA: uint8(t1), RB: uint8(t2)})
	default:
		t1 := g.tempGPR()
		t2 := g.tempGPR()
		t3 := g.tempGPR()
		g.emit(vt.Instr{Op: vt.SetCC, Cond: strictCond(c), RD: uint8(t1), RA: uint8(ahi), RB: uint8(bhi)})
		g.emit(vt.Instr{Op: vt.SetCC, Cond: vt.CondEQ, RD: uint8(t2), RA: uint8(ahi), RB: uint8(bhi)})
		g.emit(vt.Instr{Op: vt.SetCC, Cond: unsignedLo(c), RD: uint8(t3), RA: uint8(alo), RB: uint8(blo)})
		g.emit(vt.Instr{Op: vt.And, RD: uint8(t2), RA: uint8(t2), RB: uint8(t3)})
		g.mov(d, t1)
		g.emit(vt.Instr{Op: vt.Or, RD: uint8(d), RA: uint8(d), RB: uint8(t2)})
	}
	g.finishDef(v)
	return nil
}

// genSelect lowers select branch-free via the xor-mask trick (no
// conditional moves in the ISA, and in-block branches would invalidate the
// register cache discipline).
func (g *codegen) genSelect(v qir.Value, in *qir.Instr) error {
	cond := g.useGPR(in.A)
	mask := g.tempGPR()
	g.mov(mask, cond)
	g.emit(vt.Instr{Op: vt.Neg, RD: uint8(mask), RA: uint8(mask)}) // 0 or ~0
	sel := func(d, x, y int16) {
		t := g.tempGPR()
		g.mov(t, x)
		g.emit(vt.Instr{Op: vt.Xor, RD: uint8(t), RA: uint8(t), RB: uint8(y)})
		g.emit(vt.Instr{Op: vt.And, RD: uint8(t), RA: uint8(t), RB: uint8(mask)})
		g.mov(d, y)
		g.emit(vt.Instr{Op: vt.Xor, RD: uint8(d), RA: uint8(d), RB: uint8(t)})
	}
	switch {
	case g.isWide[v]:
		xlo, xhi := g.usePair(in.B)
		ylo, yhi := g.usePair(in.C)
		dlo, dhi := g.defPair(v)
		sel(dlo, xlo, ylo)
		sel(dhi, xhi, yhi)
	case g.isFloat[v]:
		x := g.useFPR(in.B)
		y := g.useFPR(in.C)
		tx := g.tempGPR()
		ty := g.tempGPR()
		g.emit(vt.Instr{Op: vt.MovRF, RD: uint8(tx), RA: uint8(x)})
		g.emit(vt.Instr{Op: vt.MovRF, RD: uint8(ty), RA: uint8(y)})
		td := g.tempGPR()
		sel(td, tx, ty)
		d := g.defFPR(v)
		g.emit(vt.Instr{Op: vt.MovFR, RD: uint8(d), RA: uint8(td)})
	default:
		x := g.useGPR(in.B)
		y := g.useGPR(in.C)
		d := g.defGPR(v)
		sel(d, x, y)
	}
	g.finishDef(v)
	return nil
}
