package clift

import (
	"fmt"

	"qcc/internal/vt"
)

// mk returns a vinst with all register operands absent.
func mk(op vt.Op) vinst {
	return vinst{op: op, rd: vnone, ra: vnone, rb: vnone, rc: vnone, sym: -1, target: -1}
}

// lowerBlock emits VCode for one CIR block (forward, skipping merged
// producers).
func (lo *lowerer) lowerBlock(b int32) error {
	f := lo.f
	var err error
	f.forEachInst(b, func(idx int32, in *Inst) {
		if err != nil || lo.done[idx] {
			return
		}
		if e := lo.lowerInst(b, idx, in); e != nil {
			err = e
		}
	})
	return err
}

var vBinOp = map[Op]vt.Op{
	OpIadd: vt.Add, OpIsub: vt.Sub, OpImul: vt.Mul,
	OpSdiv: vt.SDiv, OpSrem: vt.SRem, OpUdiv: vt.UDiv, OpUrem: vt.URem,
	OpBand: vt.And, OpBor: vt.Or, OpBxor: vt.Xor,
	OpIshl: vt.Shl, OpUshr: vt.Shr, OpSshr: vt.Sar, OpRotr: vt.Rotr,
}

var vBinOpImm = map[Op]vt.Op{
	OpIadd: vt.AddI, OpIsub: vt.SubI, OpImul: vt.MulI,
	OpBand: vt.AndI, OpBor: vt.OrI, OpBxor: vt.XorI,
	OpIshl: vt.ShlI, OpUshr: vt.ShrI, OpSshr: vt.SarI, OpRotr: vt.RotrI,
}

var vLoadOp = map[Op]vt.Op{
	OpLoad8U: vt.Load8, OpLoad8S: vt.Load8S, OpLoad16S: vt.Load16S,
	OpLoad32S: vt.Load32S, OpLoad64: vt.Load64,
}

var vStoreOp = map[Op]vt.Op{
	OpStore8: vt.Store8, OpStore16: vt.Store16,
	OpStore32: vt.Store32, OpStore64: vt.Store64,
}

func (lo *lowerer) lowerInst(b, idx int32, in *Inst) error {
	switch in.Op {
	case OpNop:
	case OpIconst:
		v := mk(vt.MovRI)
		v.rd = lo.val(in.Res[0])
		v.imm = in.Imm
		lo.emit(v)
	case OpF64const:
		v := mk(vt.FMovRI)
		v.rd = lo.val(in.Res[0])
		v.imm = in.Imm
		lo.emit(v)
	case OpFuncAddr:
		v := mk(vt.MovRI)
		v.rd = lo.val(in.Res[0])
		v.sym = int32(in.Aux)
		lo.emit(v)

	case OpIadd, OpIsub, OpImul, OpBand, OpBor, OpBxor,
		OpIshl, OpUshr, OpSshr, OpRotr:
		if imm, _, ok := lo.constArg(in.Args[1]); ok {
			v := mk(vBinOpImm[in.Op])
			v.rd = lo.val(in.Res[0])
			v.ra = lo.val(in.Args[0])
			v.imm = imm
			lo.emit(v)
			return nil
		}
		v := mk(vBinOp[in.Op])
		v.rd = lo.val(in.Res[0])
		v.ra = lo.val(in.Args[0])
		v.rb = lo.val(in.Args[1])
		lo.emit(v)

	case OpSdiv, OpSrem, OpUdiv, OpUrem:
		v := mk(vBinOp[in.Op])
		v.rd = lo.val(in.Res[0])
		v.ra = lo.val(in.Args[0])
		v.rb = lo.val(in.Args[1])
		lo.emit(v)

	case OpIneg:
		v := mk(vt.Neg)
		v.rd = lo.val(in.Res[0])
		v.ra = lo.val(in.Args[0])
		lo.emit(v)
	case OpBnot:
		v := mk(vt.Not)
		v.rd = lo.val(in.Res[0])
		v.ra = lo.val(in.Args[0])
		lo.emit(v)

	case OpUmulhi, OpSmulhi:
		op := vt.MulWideU
		if in.Op == OpSmulhi {
			op = vt.MulWideS
		}
		v := mk(op)
		v.rd = lo.p.newTemp(vt.GPR) // low half discarded
		v.rc = lo.val(in.Res[0])
		v.ra = lo.val(in.Args[0])
		v.rb = lo.val(in.Args[1])
		lo.emit(v)
	case OpMulWide:
		v := mk(vt.MulWideU)
		v.rd = lo.val(in.Res[0])
		v.rc = lo.val(in.Res[1])
		v.ra = lo.val(in.Args[0])
		v.rb = lo.val(in.Args[1])
		lo.emit(v)

	case OpCrc32:
		v := mk(vt.Crc32)
		v.rd = lo.val(in.Res[0])
		v.ra = lo.val(in.Args[0])
		v.rb = lo.val(in.Args[1])
		lo.emit(v)

	case OpIaddOv, OpIsubOv, OpImulOv:
		lo.lowerOverflow(in)

	case OpIcmp:
		v := mk(vt.SetCC)
		v.cond = vt.Cond(in.Aux)
		v.rd = lo.val(in.Res[0])
		v.ra = lo.val(in.Args[0])
		if imm, _, ok := lo.constArg(in.Args[1]); ok {
			// No compare-immediate form: materialize into a temp.
			t := lo.p.newTemp(vt.GPR)
			m := mk(vt.MovRI)
			m.rd = t
			m.imm = imm
			lo.emit(m)
			v.rb = t
		} else {
			v.rb = lo.val(in.Args[1])
		}
		lo.emit(v)

	case OpSelect:
		lo.lowerSelect(in)

	case OpLoad8U, OpLoad8S, OpLoad16S, OpLoad32S, OpLoad64:
		base, disp := lo.amode(in.Args[0])
		v := mk(vLoadOp[in.Op].UncheckedIf(in.Aux != 0))
		v.rd = lo.val(in.Res[0])
		v.ra = base
		v.imm = disp
		lo.emit(v)
	case OpFload:
		base, disp := lo.amode(in.Args[0])
		v := mk(vt.FLoad.UncheckedIf(in.Aux != 0))
		v.rd = lo.val(in.Res[0])
		v.ra = base
		v.imm = disp
		lo.emit(v)
	case OpStore8, OpStore16, OpStore32, OpStore64:
		base, disp := lo.amode(in.Args[0])
		v := mk(vStoreOp[in.Op].UncheckedIf(in.Aux != 0))
		v.ra = base
		v.rb = lo.val(in.Args[1])
		v.imm = disp
		lo.emit(v)
	case OpFstore:
		base, disp := lo.amode(in.Args[0])
		v := mk(vt.FStore.UncheckedIf(in.Aux != 0))
		v.ra = base
		v.rb = lo.val(in.Args[1])
		v.imm = disp
		lo.emit(v)

	case OpFadd, OpFsub, OpFmul, OpFdiv:
		var op vt.Op
		switch in.Op {
		case OpFadd:
			op = vt.FAdd
		case OpFsub:
			op = vt.FSub
		case OpFmul:
			op = vt.FMul
		default:
			op = vt.FDiv
		}
		v := mk(op)
		v.rd = lo.val(in.Res[0])
		v.ra = lo.val(in.Args[0])
		v.rb = lo.val(in.Args[1])
		lo.emit(v)
	case OpFcmp:
		v := mk(vt.FCmp)
		v.cond = vt.Cond(in.Aux)
		v.rd = lo.val(in.Res[0]) // integer result
		v.ra = lo.val(in.Args[0])
		v.rb = lo.val(in.Args[1])
		lo.emit(v)
	case OpFcvtFromSint:
		v := mk(vt.CvtSI2F)
		v.rd = lo.val(in.Res[0])
		v.ra = lo.val(in.Args[0])
		lo.emit(v)
	case OpFcvtToSint:
		v := mk(vt.CvtF2SI)
		v.rd = lo.val(in.Res[0])
		v.ra = lo.val(in.Args[0])
		lo.emit(v)
	case OpBitcastIF:
		v := mk(vt.MovFR)
		v.rd = lo.val(in.Res[0])
		v.ra = lo.val(in.Args[0])
		lo.emit(v)
	case OpBitcastFI:
		v := mk(vt.MovRF)
		v.rd = lo.val(in.Res[0])
		v.ra = lo.val(in.Args[0])
		lo.emit(v)

	case OpCallExt:
		for k := int32(0); k < in.NArgs; k++ {
			if int(k) >= len(lo.tgt.IntArgs) {
				return fmt.Errorf("clift: too many call arguments")
			}
			m := mk(vt.MovRR)
			m.rd = preg(lo.tgt.IntArgs[k])
			m.ra = lo.val(lo.f.Extra[in.ExtraAt+k])
			lo.emit(m)
		}
		c := mk(vt.CallRT)
		c.imm = int64(in.Aux)
		c.isCall = true
		lo.emit(c)
		for i := 0; i < in.numResults(); i++ {
			if lo.f.ValClass[in.Res[i]] == vt.FPR {
				m := mk(vt.MovFR)
				m.rd = lo.val(in.Res[i])
				m.ra = preg(lo.tgt.IntRet[i])
				lo.emit(m)
			} else {
				m := mk(vt.MovRR)
				m.rd = lo.val(in.Res[i])
				m.ra = preg(lo.tgt.IntRet[i])
				lo.emit(m)
			}
		}

	case OpJump:
		succ := int32(in.Aux)
		var dsts, srcs []vreg
		for i, pv := range lo.f.Blocks[succ].Params {
			dsts = append(dsts, lo.val(pv))
			srcs = append(srcs, lo.val(lo.f.Extra[in.ExtraAt+int32(i)]))
		}
		lo.cur.succs = append(lo.cur.succs, succ)
		lo.cur.moves = append(lo.cur.moves, [2][]vreg{dsts, srcs})
		v := mk(vt.Br)
		v.target = succ
		lo.emit(v)

	case OpBrif:
		thenB, elseB := int32(in.Aux), int32(in.Imm)
		condDef := lo.f.ValDef[in.Args[0]]
		if condDef >= 0 && lo.done[condDef] && lo.f.Insts[condDef].Op == OpIcmp {
			cmp := &lo.f.Insts[condDef]
			v := mk(vt.BrCC)
			v.cond = vt.Cond(cmp.Aux)
			v.ra = lo.val(cmp.Args[0])
			if imm, _, ok := lo.constArg(cmp.Args[1]); ok {
				t := lo.p.newTemp(vt.GPR)
				m := mk(vt.MovRI)
				m.rd = t
				m.imm = imm
				lo.emit(m)
				v.rb = t
			} else {
				v.rb = lo.val(cmp.Args[1])
			}
			v.target = thenB
			lo.emit(v)
		} else {
			v := mk(vt.BrNZ)
			v.ra = lo.val(in.Args[0])
			v.target = thenB
			lo.emit(v)
		}
		f := mk(vt.Br)
		f.target = elseB
		lo.emit(f)
		lo.cur.succs = append(lo.cur.succs, thenB, elseB)
		lo.cur.moves = append(lo.cur.moves, [2][]vreg{}, [2][]vreg{})

	case OpRet:
		n := 0
		if in.Args[0] != noVal {
			m := mk(vt.MovRR)
			if lo.f.ValClass[in.Args[0]] == vt.FPR {
				m.op = vt.MovRF
			}
			m.rd = preg(lo.tgt.IntRet[0])
			m.ra = lo.val(in.Args[0])
			lo.emit(m)
			n++
		}
		if in.Args[1] != noVal {
			m := mk(vt.MovRR)
			m.rd = preg(lo.tgt.IntRet[1])
			m.ra = lo.val(in.Args[1])
			lo.emit(m)
			n++
		}
		_ = n
		lo.emit(mk(vt.Ret))

	case OpTrap:
		v := mk(vt.Trap)
		v.imm = in.Imm
		lo.emit(v)
	case OpTrapnz:
		v := mk(vt.TrapNZ)
		v.ra = lo.val(in.Args[0])
		v.imm = in.Imm
		lo.emit(v)

	default:
		return fmt.Errorf("clift: cannot lower %s", in.Op)
	}
	return nil
}

// lowerOverflow expands the overflow-checking custom instructions into the
// machine sequence (add/sub/mul plus sign checks and a trap).
func (lo *lowerer) lowerOverflow(in *Inst) {
	rd := lo.val(in.Res[0])
	ra := lo.val(in.Args[0])
	rb := lo.val(in.Args[1])
	emit2 := func(op vt.Op, d, a, b vreg) {
		v := mk(op)
		v.rd, v.ra, v.rb = d, a, b
		lo.emit(v)
	}
	emitImm := func(op vt.Op, d, a vreg, imm int64) {
		v := mk(op)
		v.rd, v.ra, v.imm = d, a, imm
		lo.emit(v)
	}
	t1 := lo.p.newTemp(vt.GPR)
	t2 := lo.p.newTemp(vt.GPR)
	switch in.Op {
	case OpIaddOv:
		emit2(vt.Add, rd, ra, rb)
		emit2(vt.Xor, t1, rd, ra)
		emit2(vt.Xor, t2, rd, rb)
		emit2(vt.And, t1, t1, t2)
		emitImm(vt.ShrI, t1, t1, 63)
	case OpIsubOv:
		emit2(vt.Sub, rd, ra, rb)
		emit2(vt.Xor, t1, ra, rb)
		emit2(vt.Xor, t2, rd, ra)
		emit2(vt.And, t1, t1, t2)
		emitImm(vt.ShrI, t1, t1, 63)
	case OpImulOv:
		v := mk(vt.MulWideS)
		v.rd, v.rc, v.ra, v.rb = rd, t2, ra, rb
		lo.emit(v)
		emitImm(vt.SarI, t1, rd, 63)
		emit2(vt.Xor, t1, t1, t2)
	}
	tz := mk(vt.TrapNZ)
	tz.ra = t1
	tz.imm = int64(vt.TrapOverflow)
	lo.emit(tz)
}

// lowerSelect emits the branch-free xor-mask select.
func (lo *lowerer) lowerSelect(in *Inst) {
	cond := lo.val(in.Args[0])
	isFloat := lo.f.ValClass[in.Res[0]] == vt.FPR
	mask := lo.p.newTemp(vt.GPR)
	m := mk(vt.Neg)
	m.rd, m.ra = mask, cond
	lo.emit(m)
	selInt := func(rd, a, b vreg) {
		t := lo.p.newTemp(vt.GPR)
		x := mk(vt.Xor)
		x.rd, x.ra, x.rb = t, a, b
		lo.emit(x)
		a2 := mk(vt.And)
		a2.rd, a2.ra, a2.rb = t, t, mask
		lo.emit(a2)
		o := mk(vt.Xor)
		o.rd, o.ra, o.rb = rd, b, t
		lo.emit(o)
	}
	if !isFloat {
		selInt(lo.val(in.Res[0]), lo.val(in.Args[1]), lo.val(in.Args[2]))
		return
	}
	ta := lo.p.newTemp(vt.GPR)
	tb := lo.p.newTemp(vt.GPR)
	td := lo.p.newTemp(vt.GPR)
	mv := mk(vt.MovRF)
	mv.rd, mv.ra = ta, lo.val(in.Args[1])
	lo.emit(mv)
	mv2 := mk(vt.MovRF)
	mv2.rd, mv2.ra = tb, lo.val(in.Args[2])
	lo.emit(mv2)
	selInt(td, ta, tb)
	fr := mk(vt.MovFR)
	fr.rd, fr.ra = lo.val(in.Res[0]), td
	lo.emit(fr)
}
