package lbe

import (
	"fmt"

	"qcc/internal/qir"
)

var lBinMap = map[qir.Op]Opcode{
	qir.OpAdd: LOpAdd, qir.OpSub: LOpSub, qir.OpMul: LOpMul,
	qir.OpSDiv: LOpSDiv, qir.OpSRem: LOpSRem, qir.OpUDiv: LOpUDiv, qir.OpURem: LOpURem,
	qir.OpAnd: LOpAnd, qir.OpOr: LOpOr, qir.OpXor: LOpXor,
	qir.OpShl: LOpShl, qir.OpShr: LOpLShr, qir.OpSar: LOpAShr,
}

func (bld *irBuilder) inst(qb qir.BlockID, v qir.Value, in *qir.Instr) error {
	qf := bld.qf
	switch in.Op {
	case qir.OpConst:
		bld.set(v, bld.iconst(typeOf(in.Type), in.Imm))
	case qir.OpConst128:
		lo, hi := qf.Const128(v)
		c := bld.append(&Instr{Op: LOpConst, Typ: TI128, Imm: int64(lo), Imm2: int64(hi)})
		bld.set(v, c)
	case qir.OpConstStr:
		lo, hi := bld.env.DB.InternString(qf.Module().Strings[in.Imm])
		bld.makeStr(v, bld.iconst(TI64, int64(lo)), bld.iconst(TI64, int64(hi)))
	case qir.OpConstF:
		bld.set(v, bld.append(&Instr{Op: LOpConstF, Typ: TDouble, Imm: in.Imm}))
	case qir.OpConstPool:
		// Execution-time load from the DB's constant pool (value bound by
		// BindConstPool after compilation). The slot area is always-valid
		// machine memory allocated in NewDB, so the loads are unchecked;
		// little-endian typed loads of the canonical sign-extended slot
		// value are exact at every width.
		addr := bld.iconst(TPtr, int64(bld.env.DB.ConstPoolAddr(int(in.Imm))))
		if in.Type == qir.Str && !bld.cfg.StructPairs {
			lo := bld.append(&Instr{Op: LOpLoad, Typ: TI64, Ops: []*Instr{addr}, Unchecked: true})
			hiAddr := bld.append(&Instr{Op: LOpGEP, Typ: TPtr, Imm: 8, Ops: []*Instr{addr}})
			hi := bld.append(&Instr{Op: LOpLoad, Typ: TI64, Ops: []*Instr{hiAddr}, Unchecked: true})
			bld.setPair(v, lo, hi)
		} else {
			bld.set(v, bld.append(&Instr{Op: LOpLoad, Typ: typeOf(in.Type), Ops: []*Instr{addr}, Unchecked: true}))
		}
	case qir.OpNull:
		bld.set(v, bld.append(&Instr{Op: LOpNull, Typ: TPtr}))
	case qir.OpFuncAddr:
		bld.set(v, bld.append(&Instr{Op: LOpFuncAddr, Typ: TI64, Imm: int64(in.Aux)}))

	case qir.OpAdd, qir.OpSub, qir.OpMul, qir.OpSDiv, qir.OpSRem, qir.OpUDiv,
		qir.OpURem, qir.OpAnd, qir.OpOr, qir.OpXor, qir.OpShl, qir.OpShr, qir.OpSar:
		t := typeOf(in.Type)
		bld.set(v, bld.bin(lBinMap[in.Op], t, bld.a(in.A), bld.a(in.B)))

	case qir.OpRotr:
		// Lowered to the funnel-shift intrinsic.
		r := bld.append(&Instr{Op: LOpIntrinsic, Intr: IntrRotr, Typ: typeOf(in.Type),
			Ops: []*Instr{bld.a(in.A), bld.a(in.B)}})
		bld.set(v, r)

	case qir.OpNeg:
		t := typeOf(in.Type)
		if in.Type == qir.F64 {
			bld.set(v, bld.append(&Instr{Op: LOpFNeg, Typ: TDouble, Ops: []*Instr{bld.a(in.A)}}))
		} else {
			zero := bld.iconst(t, 0)
			bld.set(v, bld.bin(LOpSub, t, zero, bld.a(in.A)))
		}
	case qir.OpNot:
		t := typeOf(in.Type)
		m1 := bld.iconst(t, -1)
		bld.set(v, bld.bin(LOpXor, t, bld.a(in.A), m1))

	case qir.OpSAddTrap, qir.OpSSubTrap, qir.OpSMulTrap:
		return bld.trapArith(v, in)

	case qir.OpICmp:
		bld.set(v, bld.icmp(in.Cmp(), bld.a(in.A), bld.a(in.B)))
	case qir.OpFCmp:
		bld.set(v, bld.append(&Instr{Op: LOpFCmp, Typ: TI1, Pred: uint8(in.Cmp()),
			Ops: []*Instr{bld.a(in.A), bld.a(in.B)}}))

	case qir.OpZExt:
		bld.set(v, bld.append(&Instr{Op: LOpZExt, Typ: typeOf(in.Type), Ops: []*Instr{bld.a(in.A)}}))
	case qir.OpSExt:
		bld.set(v, bld.append(&Instr{Op: LOpSExt, Typ: typeOf(in.Type), Ops: []*Instr{bld.a(in.A)}}))
	case qir.OpTrunc:
		bld.set(v, bld.append(&Instr{Op: LOpTrunc, Typ: typeOf(in.Type), Ops: []*Instr{bld.a(in.A)}}))
	case qir.OpSIToFP:
		bld.set(v, bld.append(&Instr{Op: LOpSIToFP, Typ: TDouble, Ops: []*Instr{bld.a(in.A)}}))
	case qir.OpFPToSI:
		bld.set(v, bld.append(&Instr{Op: LOpFPToSI, Typ: typeOf(in.Type), Ops: []*Instr{bld.a(in.A)}}))
	case qir.OpFBits:
		bld.set(v, bld.append(&Instr{Op: LOpBitcast, Typ: TI64, Ops: []*Instr{bld.a(in.A)}}))
	case qir.OpBitsF:
		bld.set(v, bld.append(&Instr{Op: LOpBitcast, Typ: TDouble, Ops: []*Instr{bld.a(in.A)}}))

	case qir.OpFAdd, qir.OpFSub, qir.OpFMul, qir.OpFDiv:
		var op Opcode
		switch in.Op {
		case qir.OpFAdd:
			op = LOpFAdd
		case qir.OpFSub:
			op = LOpFSub
		case qir.OpFMul:
			op = LOpFMul
		default:
			op = LOpFDiv
		}
		bld.set(v, bld.bin(op, TDouble, bld.a(in.A), bld.a(in.B)))

	case qir.OpCrc32:
		bld.set(v, bld.append(&Instr{Op: LOpIntrinsic, Intr: IntrCrc32, Typ: TI64,
			Ops: []*Instr{bld.a(in.A), bld.a(in.B)}}))

	case qir.OpLMulFold:
		// Lowered to a "more complex instruction sequence": widen to
		// i128, multiply, fold the halves.
		za := bld.append(&Instr{Op: LOpZExt, Typ: TI128, Ops: []*Instr{bld.a(in.A)}})
		zb := bld.append(&Instr{Op: LOpZExt, Typ: TI128, Ops: []*Instr{bld.a(in.B)}})
		prod := bld.bin(LOpMul, TI128, za, zb)
		sixty4 := bld.iconst(TI128, 64)
		hiw := bld.bin(LOpLShr, TI128, prod, sixty4)
		lo := bld.append(&Instr{Op: LOpTrunc, Typ: TI64, Ops: []*Instr{prod}})
		hi := bld.append(&Instr{Op: LOpTrunc, Typ: TI64, Ops: []*Instr{hiw}})
		bld.set(v, bld.bin(LOpXor, TI64, lo, hi))

	case qir.OpGEP:
		ops := []*Instr{bld.a(in.A)}
		if in.B != qir.NoValue {
			ops = append(ops, bld.a(in.B))
		}
		bld.set(v, bld.append(&Instr{Op: LOpGEP, Typ: TPtr, Imm: in.Imm, Scale: int64(in.Aux), Ops: ops}))

	case qir.OpLoad:
		addr := bld.a(in.A)
		uc := in.Unchecked()
		if in.Type == qir.Str && !bld.cfg.StructPairs {
			lo := bld.append(&Instr{Op: LOpLoad, Typ: TI64, Ops: []*Instr{addr}, Unchecked: uc})
			hiAddr := bld.append(&Instr{Op: LOpGEP, Typ: TPtr, Imm: 8, Ops: []*Instr{addr}})
			hi := bld.append(&Instr{Op: LOpLoad, Typ: TI64, Ops: []*Instr{hiAddr}, Unchecked: uc})
			bld.setPair(v, lo, hi)
		} else {
			bld.set(v, bld.append(&Instr{Op: LOpLoad, Typ: typeOf(in.Type), Ops: []*Instr{addr}, Unchecked: uc}))
		}

	case qir.OpStore:
		addr := bld.a(in.A)
		t := qf.ValueType(in.B)
		uc := in.Unchecked()
		if t == qir.Str && !bld.cfg.StructPairs {
			lo, hi := bld.vals[in.B].a, bld.vals[in.B].b
			bld.append(&Instr{Op: LOpStore, Typ: TVoid, Ops: []*Instr{addr, lo}, Unchecked: uc})
			hiAddr := bld.append(&Instr{Op: LOpGEP, Typ: TPtr, Imm: 8, Ops: []*Instr{addr}})
			bld.append(&Instr{Op: LOpStore, Typ: TVoid, Ops: []*Instr{hiAddr, hi}, Unchecked: uc})
		} else {
			bld.append(&Instr{Op: LOpStore, Typ: TVoid, Ops: []*Instr{addr, bld.a(in.B)}, Unchecked: uc})
		}

	case qir.OpSelect:
		cond := bld.a(in.A)
		if in.Type == qir.Str && !bld.cfg.StructPairs {
			x, y := bld.vals[in.B], bld.vals[in.C]
			lo := bld.append(&Instr{Op: LOpSelect, Typ: TI64, Ops: []*Instr{cond, x.a, y.a}})
			hi := bld.append(&Instr{Op: LOpSelect, Typ: TI64, Ops: []*Instr{cond, x.b, y.b}})
			bld.setPair(v, lo, hi)
		} else {
			bld.set(v, bld.append(&Instr{Op: LOpSelect, Typ: typeOf(in.Type),
				Ops: []*Instr{cond, bld.a(in.B), bld.a(in.C)}}))
		}

	case qir.OpCall:
		var ops []*Instr
		for _, arg := range qf.CallArgs(v) {
			if qf.ValueType(arg) == qir.Str && !bld.cfg.StructPairs {
				lv := bld.vals[arg]
				ops = append(ops, lv.a, lv.b)
			} else {
				ops = append(ops, bld.a(arg))
			}
		}
		var rt_ *Type
		switch {
		case in.Type == qir.Void:
			rt_ = TVoid
		case in.Type == qir.Str:
			rt_ = TPair // multi-register returns are always structs
		default:
			rt_ = typeOf(in.Type)
		}
		call := bld.append(&Instr{Op: LOpCallRT, Typ: rt_, RTID: in.Aux, Ops: ops})
		if in.Type == qir.Str && !bld.cfg.StructPairs {
			lo := bld.append(&Instr{Op: LOpExtractVal, Typ: TI64, Imm: 0, Ops: []*Instr{call}})
			hi := bld.append(&Instr{Op: LOpExtractVal, Typ: TI64, Imm: 1, Ops: []*Instr{call}})
			bld.setPair(v, lo, hi)
		} else if in.Type != qir.Void {
			bld.set(v, call)
		}

	case qir.OpPhi:
		if in.Type == qir.Str && !bld.cfg.StructPairs {
			lo := bld.append(&Instr{Op: LOpPhi, Typ: TI64})
			hi := bld.append(&Instr{Op: LOpPhi, Typ: TI64})
			bld.setPair(v, lo, hi)
			bld.pendingPhis = append(bld.pendingPhis, pendingPhi{qv: v, half: 0, phi: lo},
				pendingPhi{qv: v, half: 1, phi: hi})
		} else {
			phi := bld.append(&Instr{Op: LOpPhi, Typ: typeOf(in.Type)})
			bld.set(v, phi)
			bld.pendingPhis = append(bld.pendingPhis, pendingPhi{qv: v, half: 0, phi: phi})
		}

	case qir.OpBr:
		bld.append(&Instr{Op: LOpBr, Typ: TVoid, Then: bld.qirStart[in.Aux]})
	case qir.OpCondBr:
		bld.append(&Instr{Op: LOpCondBr, Typ: TVoid, Ops: []*Instr{bld.a(in.A)},
			Then: bld.qirStart[in.Aux], Else: bld.qirStart[in.B]})
	case qir.OpRet:
		if in.A == qir.NoValue {
			bld.append(&Instr{Op: LOpRet, Typ: TVoid})
		} else if qf.ValueType(in.A) == qir.Str && !bld.cfg.StructPairs {
			lv := bld.vals[in.A]
			pair := bld.append(&Instr{Op: LOpBuildPair, Typ: TPair, Ops: []*Instr{lv.a, lv.b}})
			bld.append(&Instr{Op: LOpRet, Typ: TVoid, Ops: []*Instr{pair}})
		} else {
			bld.append(&Instr{Op: LOpRet, Typ: TVoid, Ops: []*Instr{bld.a(in.A)}})
		}
	case qir.OpUnreachable:
		bld.append(&Instr{Op: LOpUnreachable, Typ: TVoid})

	default:
		return fmt.Errorf("cannot translate %s", in.Op)
	}
	return nil
}

// trapArith emits the overflow intrinsic, the extracts, and the trap check.
// 128-bit multiplication calls the hand-optimized runtime helper instead of
// the LLVM intrinsic (paper Sec. V-A1).
func (bld *irBuilder) trapArith(v qir.Value, in *qir.Instr) error {
	if in.Type == qir.I128 && in.Op == qir.OpSMulTrap {
		call := bld.append(&Instr{Op: LOpCallRT, Typ: TI128,
			RTID: bld.rtid(rtFnI128MulOv), Ops: []*Instr{bld.a(in.A), bld.a(in.B)}})
		bld.set(v, call)
		return nil
	}
	var intr IntrinsicID
	switch in.Op {
	case qir.OpSAddTrap:
		intr = IntrSAddOv
	case qir.OpSSubTrap:
		intr = IntrSSubOv
	default:
		intr = IntrSMulOv
	}
	var st *Type
	switch in.Type {
	case qir.I16:
		st = TOvf16
	case qir.I32:
		st = TOvf32
	case qir.I64:
		st = TOvf64
	case qir.I128:
		st = TOvf128
	default:
		st = &Type{Kind: KStruct, Fields: []*Type{typeOf(in.Type), TI1}}
	}
	res := bld.append(&Instr{Op: LOpIntrinsic, Intr: intr, Typ: st,
		Ops: []*Instr{bld.a(in.A), bld.a(in.B)}})
	val := bld.append(&Instr{Op: LOpExtractVal, Typ: st.Fields[0], Imm: 0, Ops: []*Instr{res}})
	ovf := bld.append(&Instr{Op: LOpExtractVal, Typ: TI1, Imm: 1, Ops: []*Instr{res}})
	bld.checkOverflow(ovf)
	bld.set(v, val)
	return nil
}

// rtFnI128MulOv mirrors rt.FnI128MulOv without importing rt here twice.
const rtFnI128MulOv = "i128_mul_ov"
