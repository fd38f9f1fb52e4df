package lbe

import (
	"fmt"

	"qcc/internal/backend"
	"qcc/internal/qir"
	"qcc/internal/vt"
)

// mval is the machine representation of one LIR value: one vreg, or two for
// i128 and two-field structs.
type mval struct {
	a, b mreg
}

// isel is shared instruction-selection state (FastISel and the SelectionDAG
// fallback write into the same MIR function and value map).
type isel struct {
	cfg   Config
	fn    *Fn
	mf    *mfunc
	tgt   *vt.Target
	stats *backend.Stats
	vals  map[*Instr]mval
	cur   int32 // current MIR block
}

func wideType(t *Type) bool {
	return t.Kind == KInt && t.Bits == 128 || t.Kind == KStruct
}

func classFor(t *Type) vt.RegClass {
	if t.Kind == KDouble {
		return vt.FPR
	}
	return vt.GPR
}

// getVal returns (allocating on demand) the vregs of an LIR value.
func (is *isel) getVal(v *Instr) mval {
	if mv, ok := is.vals[v]; ok {
		return mv
	}
	var mv mval
	mv.a = is.mf.newVReg(classFor(v.Typ))
	mv.b = mnone
	if wideType(v.Typ) {
		mv.b = is.mf.newVReg(vt.GPR)
	}
	is.vals[v] = mv
	return mv
}

func (is *isel) emit(in minst) {
	is.mf.blocks[is.cur].insts = append(is.mf.blocks[is.cur].insts, in)
}

func (is *isel) emit3(op vt.Op, rd, ra, rb mreg) {
	in := newMinst(op)
	in.rd, in.ra, in.rb = rd, ra, rb
	is.emit(in)
}

func (is *isel) emitImm(op vt.Op, rd, ra mreg, imm int64) {
	in := newMinst(op)
	in.rd, in.ra, in.imm = rd, ra, imm
	is.emit(in)
}

func (is *isel) emitMovI(rd mreg, imm int64) {
	in := newMinst(vt.MovRI)
	in.rd, in.imm = rd, imm
	is.emit(in)
}

func (is *isel) temp() mreg { return is.mf.newVReg(vt.GPR) }

// canonInto emits canonicalization (sign-extension to 64 bits) of a narrow
// result.
func (is *isel) canonInto(bits int, rd, ra mreg) {
	switch bits {
	case 1:
		is.emitImm(vt.AndI, rd, ra, 1)
	case 8, 16, 32:
		sh := int64(64 - bits)
		t := is.temp()
		is.emitImm(vt.ShlI, t, ra, sh)
		is.emitImm(vt.SarI, rd, t, sh)
	default:
		if rd != ra {
			is.emit3(vt.MovRR, rd, ra, mnone)
		}
	}
}

func (is *isel) zextInto(bits int, rd, ra mreg) {
	switch bits {
	case 1:
		is.emitImm(vt.AndI, rd, ra, 1)
	case 8:
		is.emitImm(vt.AndI, rd, ra, 0xFF)
	case 16:
		is.emitImm(vt.AndI, rd, ra, 0xFFFF)
	case 32:
		is.emitImm(vt.AndI, rd, ra, 0xFFFFFFFF)
	default:
		if rd != ra {
			is.emit3(vt.MovRR, rd, ra, mnone)
		}
	}
}

// FastISel: the fast instruction selector. It walks blocks linearly and
// expands each LIR instruction into machine instructions, falling back to
// SelectionDAG when it encounters 128-bit values, struct-typed values, or
// calls it cannot handle — and counting why, reproducing the fallback
// census of Sec. V-B3b.
type fastISel struct {
	*isel
	dag *selectionDAG
}

// Fallback-cause counter names.
const (
	cntFallbackCall   = "fastisel_fallback_call"
	cntFallbackI128   = "fastisel_fallback_i128"
	cntFallbackStruct = "fastisel_fallback_struct"
	cntFallbackOther  = "fastisel_fallback_other"
)

// fallbackCause classifies why FastISel cannot handle in; empty = it can.
// callOnly reports the per-instruction (rather than rest-of-block) fallback
// used for calls and unimplemented intrinsics.
func (fi *fastISel) fallbackCause(in *Instr) (cause string, callOnly bool) {
	switch in.Op {
	case LOpPhi:
		return "", false // phis handled structurally
	case LOpCallRT:
		if fi.cfg.LargeCodeModel {
			// The large code model is unsupported by FastISel: every
			// call falls back (the pre-Small-PIC behaviour).
			return cntFallbackCall, true
		}
		for _, op := range in.Ops {
			if wideType(op.Typ) {
				return cntFallbackCall, true
			}
		}
		if wideType(in.Typ) {
			return cntFallbackCall, true
		}
		return "", false
	case LOpIntrinsic:
		switch in.Intr {
		case IntrSAddOv, IntrSSubOv, IntrSMulOv:
			if in.Typ.Fields[0].Bits > 64 {
				return cntFallbackI128, false
			}
			return "", false
		case IntrCrc32, IntrRotr:
			// FastISel support for CRC32 was added by the paper's
			// authors (Sec. V-A2, item four).
			return "", false
		default:
			return cntFallbackOther, true
		}
	case LOpExtractVal:
		// Supported only for the virtually-expanded overflow results.
		src := in.Ops[0]
		if src.Op == LOpIntrinsic && src.Typ.Fields[0].Bits <= 64 {
			return "", false
		}
		return cntFallbackStruct, false
	case LOpInsertVal, LOpBuildPair:
		return cntFallbackStruct, false
	}
	if wideType(in.Typ) {
		if in.Typ.Kind == KStruct {
			return cntFallbackStruct, false
		}
		return cntFallbackI128, false
	}
	for _, op := range in.Ops {
		if wideType(op.Typ) {
			if op.Typ.Kind == KStruct {
				return cntFallbackStruct, false
			}
			return cntFallbackI128, false
		}
	}
	return "", false
}

// runOnBlock selects block b; returns an error only for malformed IR.
func (fi *fastISel) runOnBlock(b *Block, mb int32) error {
	fi.cur = mb
	instrs := b.Instrs
	for i := 0; i < len(instrs); i++ {
		in := instrs[i]
		if in.Op == LOpPhi {
			fi.lowerPhi(in)
			continue
		}
		cause, callOnly := fi.fallbackCause(in)
		if cause == "" {
			if err := fi.lowerFast(in); err != nil {
				return err
			}
			continue
		}
		fi.stats.Count(cause, 1)
		fi.stats.Count("fastisel_fallbacks", 1)
		if callOnly {
			if err := fi.dag.lowerRange(b, i, i+1, mb); err != nil {
				return err
			}
			continue
		}
		// Fall back for the remainder of the block.
		return fi.dag.lowerRange(b, i, len(instrs), mb)
	}
	return nil
}

// lowerPhi creates MIR PHIs (two for wide values).
func (is *isel) lowerPhi(in *Instr) {
	mv := is.getVal(in)
	p := newMinst(vt.Nop)
	p.rd = mv.a
	p.phi = &phiInfo{}
	p2 := newMinst(vt.Nop)
	p2.rd = mv.b
	p2.phi = &phiInfo{}
	for i, src := range in.Ops {
		sv := is.getVal(src)
		blk := is.blockID(in.Inc[i])
		p.phi.srcs = append(p.phi.srcs, sv.a)
		p.phi.blocks = append(p.phi.blocks, blk)
		if mv.b != mnone {
			p2.phi.srcs = append(p2.phi.srcs, sv.b)
			p2.phi.blocks = append(p2.phi.blocks, blk)
		}
	}
	is.emit(p)
	if mv.b != mnone {
		is.emit(p2)
	}
}

// blockID maps an LIR block to its MIR block id (identical indexing).
func (is *isel) blockID(b *Block) int32 { return b.id }

var fiBinMap = map[Opcode]vt.Op{
	LOpAdd: vt.Add, LOpSub: vt.Sub, LOpMul: vt.Mul,
	LOpSDiv: vt.SDiv, LOpSRem: vt.SRem, LOpUDiv: vt.UDiv, LOpURem: vt.URem,
	LOpAnd: vt.And, LOpOr: vt.Or, LOpXor: vt.Xor,
	LOpShl: vt.Shl, LOpLShr: vt.Shr, LOpAShr: vt.Sar,
}

// lowerFast expands one supported instruction.
func (fi *fastISel) lowerFast(in *Instr) error {
	is := fi.isel
	switch in.Op {
	case LOpConst:
		mv := is.getVal(in)
		is.emitMovI(mv.a, in.Imm)
	case LOpConstF:
		mv := is.getVal(in)
		m := newMinst(vt.FMovRI)
		m.rd, m.imm = mv.a, in.Imm
		is.emit(m)
	case LOpNull:
		is.emitMovI(is.getVal(in).a, 0)
	case LOpFuncAddr:
		mv := is.getVal(in)
		m := newMinst(vt.MovRI)
		m.rd, m.sym = mv.a, int32(in.Imm)
		is.emit(m)

	case LOpAdd, LOpSub, LOpMul, LOpSDiv, LOpSRem, LOpUDiv, LOpURem,
		LOpAnd, LOpOr, LOpXor, LOpShl, LOpLShr, LOpAShr:
		a := is.getVal(in.Ops[0]).a
		b := is.getVal(in.Ops[1]).a
		d := is.getVal(in).a
		bits := in.Typ.Bits
		if in.Op == LOpLShr && bits < 64 {
			t := is.temp()
			is.zextInto(bits, t, a)
			a = t
		}
		if bits < 64 {
			t := is.temp()
			is.emit3(fiBinMap[in.Op], t, a, b)
			switch in.Op {
			case LOpAnd, LOpOr, LOpXor, LOpAShr, LOpSRem:
				is.emit3(vt.MovRR, d, t, mnone)
			default:
				is.canonInto(bits, d, t)
			}
		} else {
			is.emit3(fiBinMap[in.Op], d, a, b)
		}

	case LOpICmp:
		a := is.getVal(in.Ops[0]).a
		b := is.getVal(in.Ops[1]).a
		d := is.getVal(in).a
		m := newMinst(vt.SetCC)
		m.cond = vt.Cond(in.Pred)
		m.rd, m.ra, m.rb = d, a, b
		is.emit(m)
	case LOpFCmp:
		m := newMinst(vt.FCmp)
		m.cond = vt.Cond(in.Pred)
		m.rd = is.getVal(in).a
		m.ra = is.getVal(in.Ops[0]).a
		m.rb = is.getVal(in.Ops[1]).a
		is.emit(m)

	case LOpZExt:
		is.zextInto(in.Ops[0].Typ.Bits, is.getVal(in).a, is.getVal(in.Ops[0]).a)
	case LOpSExt:
		// Canonical form: already sign-extended.
		is.emit3(vt.MovRR, is.getVal(in).a, is.getVal(in.Ops[0]).a, mnone)
	case LOpTrunc:
		is.canonInto(in.Typ.Bits, is.getVal(in).a, is.getVal(in.Ops[0]).a)
	case LOpSIToFP:
		is.emit3(vt.CvtSI2F, is.getVal(in).a, is.getVal(in.Ops[0]).a, mnone)
	case LOpFPToSI:
		t := is.temp()
		is.emit3(vt.CvtF2SI, t, is.getVal(in.Ops[0]).a, mnone)
		is.canonInto(in.Typ.Bits, is.getVal(in).a, t)
	case LOpBitcast:
		if in.Typ == TDouble {
			is.emit3(vt.MovFR, is.getVal(in).a, is.getVal(in.Ops[0]).a, mnone)
		} else {
			is.emit3(vt.MovRF, is.getVal(in).a, is.getVal(in.Ops[0]).a, mnone)
		}

	case LOpFAdd, LOpFSub, LOpFMul, LOpFDiv:
		var op vt.Op
		switch in.Op {
		case LOpFAdd:
			op = vt.FAdd
		case LOpFSub:
			op = vt.FSub
		case LOpFMul:
			op = vt.FMul
		default:
			op = vt.FDiv
		}
		is.emit3(op, is.getVal(in).a, is.getVal(in.Ops[0]).a, is.getVal(in.Ops[1]).a)
	case LOpFNeg:
		t := is.temp()
		is.emit3(vt.MovRF, t, is.getVal(in.Ops[0]).a, mnone)
		t2 := is.temp()
		is.emitMovI(t2, -1<<63)
		t3 := is.temp()
		is.emit3(vt.Xor, t3, t, t2)
		is.emit3(vt.MovFR, is.getVal(in).a, t3, mnone)

	case LOpGEP:
		is.lowerGEP(in)

	case LOpLoad:
		addr := is.getVal(in.Ops[0]).a
		mv := is.getVal(in)
		is.lowerLoad(in.Typ, mv, addr, 0, in.Unchecked)
	case LOpStore:
		addr := is.getVal(in.Ops[0]).a
		val := in.Ops[1]
		is.lowerStore(val.Typ, is.getVal(val), addr, 0, in.Unchecked)

	case LOpSelect:
		is.lowerSelect(is.getVal(in), is.getVal(in.Ops[0]).a,
			is.getVal(in.Ops[1]), is.getVal(in.Ops[2]), in.Typ)

	case LOpCallRT:
		return is.lowerCall(in)

	case LOpIntrinsic:
		return is.lowerIntrinsic(in)

	case LOpExtractVal:
		src := is.getVal(in.Ops[0])
		d := is.getVal(in).a
		if in.Imm == 0 {
			is.emit3(vt.MovRR, d, src.a, mnone)
		} else {
			is.emit3(vt.MovRR, d, src.b, mnone)
		}

	case LOpBr:
		is.emitBr(is.blockID(in.Then))
	case LOpCondBr:
		is.emitCondBr(is.getVal(in.Ops[0]).a, is.blockID(in.Then), is.blockID(in.Else))
	case LOpRet:
		is.lowerRet(in)
	case LOpUnreachable:
		m := newMinst(vt.Trap)
		m.imm = int64(vt.TrapUnreachable)
		is.emit(m)

	default:
		return fmt.Errorf("lbe: fastisel cannot lower %s", in.Op)
	}
	return nil
}

func (is *isel) emitBr(target int32) {
	m := newMinst(vt.Br)
	m.target = target
	is.emit(m)
	is.mf.blocks[is.cur].succs = append(is.mf.blocks[is.cur].succs, target)
}

func (is *isel) emitCondBr(cond mreg, thenB, elseB int32) {
	m := newMinst(vt.BrNZ)
	m.ra = cond
	m.target = thenB
	is.emit(m)
	m2 := newMinst(vt.Br)
	m2.target = elseB
	is.emit(m2)
	is.mf.blocks[is.cur].succs = append(is.mf.blocks[is.cur].succs, thenB, elseB)
}

func (is *isel) lowerGEP(in *Instr) {
	base := is.getVal(in.Ops[0]).a
	d := is.getVal(in).a
	if len(in.Ops) > 1 {
		idx := is.getVal(in.Ops[1]).a
		t := is.temp()
		if in.Scale != 1 {
			is.emitImm(vt.MulI, t, idx, in.Scale)
		} else {
			is.emit3(vt.MovRR, t, idx, mnone)
		}
		t2 := is.temp()
		is.emit3(vt.Add, t2, base, t)
		is.emitImm(vt.Lea, d, t2, in.Imm)
	} else {
		is.emitImm(vt.Lea, d, base, in.Imm)
	}
}

func (is *isel) lowerLoad(t *Type, mv mval, addr mreg, disp int64, unchecked bool) {
	switch {
	case t.Kind == KDouble:
		m := newMinst(vt.FLoad.UncheckedIf(unchecked))
		m.rd, m.ra, m.imm = mv.a, addr, disp
		is.emit(m)
	case wideType(t):
		is.emitImm(vt.Load64.UncheckedIf(unchecked), mv.a, addr, disp)
		is.emitImm(vt.Load64.UncheckedIf(unchecked), mv.b, addr, disp+8)
	default:
		var op vt.Op
		switch t.Bits {
		case 1:
			op = vt.Load8
		case 8:
			op = vt.Load8S
		case 16:
			op = vt.Load16S
		case 32:
			op = vt.Load32S
		default:
			op = vt.Load64
		}
		is.emitImm(op.UncheckedIf(unchecked), mv.a, addr, disp)
		if t.Bits == 1 {
			is.emitImm(vt.AndI, mv.a, mv.a, 1)
		}
	}
}

func (is *isel) lowerStore(t *Type, mv mval, addr mreg, disp int64, unchecked bool) {
	st := func(op vt.Op, src mreg, d int64) {
		m := newMinst(op.UncheckedIf(unchecked))
		m.ra, m.rb, m.imm = addr, src, d
		is.emit(m)
	}
	switch {
	case t.Kind == KDouble:
		st(vt.FStore, mv.a, disp)
	case wideType(t):
		st(vt.Store64, mv.a, disp)
		st(vt.Store64, mv.b, disp+8)
	default:
		switch t.Bits {
		case 1, 8:
			st(vt.Store8, mv.a, disp)
		case 16:
			st(vt.Store16, mv.a, disp)
		case 32:
			st(vt.Store32, mv.a, disp)
		default:
			st(vt.Store64, mv.a, disp)
		}
	}
}

// lowerSelect is the branch-free mask select (wide and float variants).
func (is *isel) lowerSelect(d mval, cond mreg, x, y mval, t *Type) {
	mask := is.temp()
	m := newMinst(vt.Neg)
	m.rd, m.ra = mask, cond
	is.emit(m)
	sel := func(rd, a, b mreg) {
		t1 := is.temp()
		is.emit3(vt.Xor, t1, a, b)
		t2 := is.temp()
		is.emit3(vt.And, t2, t1, mask)
		is.emit3(vt.Xor, rd, b, t2)
	}
	switch {
	case t.Kind == KDouble:
		ta, tb, td := is.temp(), is.temp(), is.temp()
		is.emit3(vt.MovRF, ta, x.a, mnone)
		is.emit3(vt.MovRF, tb, y.a, mnone)
		sel(td, ta, tb)
		is.emit3(vt.MovFR, d.a, td, mnone)
	case wideType(t):
		sel(d.a, x.a, y.a)
		sel(d.b, x.b, y.b)
	default:
		sel(d.a, x.a, y.a)
	}
}

// lowerCall stages arguments per the calling convention and emits the
// runtime call.
func (is *isel) lowerCall(in *Instr) error {
	reg := 0
	stageOne := func(r mreg) error {
		if reg >= len(is.tgt.IntArgs) {
			return fmt.Errorf("lbe: too many call arguments")
		}
		m := newMinst(vt.MovRR)
		m.rd = mpreg(is.tgt.IntArgs[reg])
		m.ra = r
		is.emit(m)
		reg++
		return nil
	}
	for _, op := range in.Ops {
		mv := is.getVal(op)
		if op.Typ.Kind == KDouble {
			t := is.temp()
			is.emit3(vt.MovRF, t, mv.a, mnone)
			if err := stageOne(t); err != nil {
				return err
			}
			continue
		}
		if err := stageOne(mv.a); err != nil {
			return err
		}
		if mv.b != mnone {
			if err := stageOne(mv.b); err != nil {
				return err
			}
		}
	}
	c := newMinst(vt.CallRT)
	c.imm = int64(in.RTID)
	c.isCall = true
	is.emit(c)
	if in.Typ != TVoid {
		mv := is.getVal(in)
		if in.Typ.Kind == KDouble {
			is.emit3(vt.MovFR, mv.a, mpreg(is.tgt.IntRet[0]), mnone)
		} else {
			is.emit3(vt.MovRR, mv.a, mpreg(is.tgt.IntRet[0]), mnone)
			if mv.b != mnone {
				is.emit3(vt.MovRR, mv.b, mpreg(is.tgt.IntRet[1]), mnone)
			}
		}
	}
	return nil
}

// lowerIntrinsic expands the supported intrinsics (≤64-bit overflow ops,
// crc32, rotr).
func (is *isel) lowerIntrinsic(in *Instr) error {
	switch in.Intr {
	case IntrCrc32:
		is.emit3(vt.Crc32, is.getVal(in).a, is.getVal(in.Ops[0]).a, is.getVal(in.Ops[1]).a)
		return nil
	case IntrRotr:
		d := is.getVal(in).a
		is.emit3(vt.Rotr, d, is.getVal(in.Ops[0]).a, is.getVal(in.Ops[1]).a)
		is.canonInto(in.Typ.Bits, d, d)
		return nil
	case IntrSAddOv, IntrSSubOv, IntrSMulOv:
		return is.lowerOverflowIntr(in)
	}
	return fmt.Errorf("lbe: unimplemented intrinsic %s", in.Intr)
}

// lowerOverflowIntr computes (value, flag) into the intrinsic's two vregs.
func (is *isel) lowerOverflowIntr(in *Instr) error {
	bits := in.Typ.Fields[0].Bits
	a := is.getVal(in.Ops[0]).a
	b := is.getVal(in.Ops[1]).a
	mv := is.getVal(in) // a = value, b = overflow flag
	if bits < 64 {
		var op vt.Op
		switch in.Intr {
		case IntrSAddOv:
			op = vt.Add
		case IntrSSubOv:
			op = vt.Sub
		default:
			op = vt.Mul
		}
		wide := is.temp()
		is.emit3(op, wide, a, b)
		is.canonInto(bits, mv.a, wide)
		m := newMinst(vt.SetCC)
		m.cond = vt.CondNE
		m.rd, m.ra, m.rb = mv.b, mv.a, wide
		is.emit(m)
		return nil
	}
	switch in.Intr {
	case IntrSAddOv, IntrSSubOv:
		var op vt.Op = vt.Add
		if in.Intr == IntrSSubOv {
			op = vt.Sub
		}
		is.emit3(op, mv.a, a, b)
		t1, t2 := is.temp(), is.temp()
		if in.Intr == IntrSAddOv {
			is.emit3(vt.Xor, t1, mv.a, a)
			is.emit3(vt.Xor, t2, mv.a, b)
		} else {
			is.emit3(vt.Xor, t1, a, b)
			is.emit3(vt.Xor, t2, mv.a, a)
		}
		t3 := is.temp()
		is.emit3(vt.And, t3, t1, t2)
		is.emitImm(vt.ShrI, mv.b, t3, 63)
	default: // SMulOv
		hi := is.temp()
		m := newMinst(vt.MulWideS)
		m.rd, m.rc, m.ra, m.rb = mv.a, hi, a, b
		is.emit(m)
		t := is.temp()
		is.emitImm(vt.SarI, t, mv.a, 63)
		t2 := is.temp()
		is.emit3(vt.Xor, t2, t, hi)
		z := is.temp()
		is.emitMovI(z, 0)
		sc := newMinst(vt.SetCC)
		sc.cond = vt.CondNE
		sc.rd, sc.ra, sc.rb = mv.b, t2, z
		is.emit(sc)
	}
	return nil
}

func (is *isel) lowerRet(in *Instr) {
	if len(in.Ops) > 0 {
		mv := is.getVal(in.Ops[0])
		if in.Ops[0].Typ.Kind == KDouble {
			is.emit3(vt.MovRF, mpreg(is.tgt.IntRet[0]), mv.a, mnone)
		} else {
			is.emit3(vt.MovRR, mpreg(is.tgt.IntRet[0]), mv.a, mnone)
			if mv.b != mnone {
				is.emit3(vt.MovRR, mpreg(is.tgt.IntRet[1]), mv.b, mnone)
			}
		}
	}
	is.emit(newMinst(vt.Ret))
}

// bindParams moves the argument registers into the parameter vregs at
// function entry.
func (is *isel) bindParams() {
	reg := 0
	freg := 0
	for _, p := range is.fn.Params {
		mv := is.getVal(p)
		if p.Typ.Kind == KDouble {
			m := newMinst(vt.FMovRR)
			m.rd = mv.a
			m.ra = mpreg(is.tgt.FloatArgs[freg])
			freg++
			is.emit(m)
			continue
		}
		is.emit3(vt.MovRR, mv.a, mpreg(is.tgt.IntArgs[reg]), mnone)
		reg++
		if mv.b != mnone {
			is.emit3(vt.MovRR, mv.b, mpreg(is.tgt.IntArgs[reg]), mnone)
			reg++
		}
	}
}

var _ = qir.Void
