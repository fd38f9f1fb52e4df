package lbe

import (
	"fmt"

	"qcc/internal/vt"
)

// instructionSelect maps the legalized gMIR onto machine instructions (the
// fourth GlobalISel pass). Every generic vreg becomes one machine vreg.
func (g *gISel) instructionSelect(fn *Fn, gf *gfunc) (*mfunc, error) {
	mf := g.mf
	m := make([]mreg, len(gf.types))
	for v := range m {
		m[v] = mf.newVReg(gf.banks[v])
	}
	r := func(v gvr) mreg {
		if v == gnone {
			return mnone
		}
		return m[v]
	}
	for bi := range gf.blocks {
		g.cur = int32(bi)
		for i := range gf.blocks[bi] {
			gi := &gf.blocks[bi][i]
			if err := g.selectOne(gi, r); err != nil {
				return nil, fmt.Errorf("lbe: gisel: %w", err)
			}
		}
	}
	return mf, nil
}

func (g *gISel) selectOne(gi *ginst, r func(gvr) mreg) error {
	is := g.isel
	switch gi.op {
	case gopParam:
		if gi.imm2 == 1 {
			m := newMinst(vt.FMovRR)
			m.rd, m.ra = r(gi.dst), mpreg(uint8(gi.imm))
			is.emit(m)
		} else {
			is.emit3(vt.MovRR, r(gi.dst), mpreg(uint8(gi.imm)), mnone)
		}
	case LOpConst:
		is.emitMovI(r(gi.dst), gi.imm)
	case LOpConstF:
		m := newMinst(vt.FMovRI)
		m.rd, m.imm = r(gi.dst), gi.imm
		is.emit(m)
	case LOpNull:
		is.emitMovI(r(gi.dst), 0)
	case LOpFuncAddr:
		m := newMinst(vt.MovRI)
		m.rd, m.sym = r(gi.dst), gi.sym
		is.emit(m)

	case LOpAdd, LOpSub, LOpMul, LOpSDiv, LOpSRem, LOpUDiv, LOpURem,
		LOpAnd, LOpOr, LOpXor, LOpShl, LOpLShr, LOpAShr:
		bits := 64
		if gi.ty.Kind == KInt {
			bits = gi.ty.Bits
		}
		a, b := r(gi.srcs[0]), r(gi.srcs[1])
		d := r(gi.dst)
		if gi.op == LOpLShr && bits < 64 {
			t := is.temp()
			is.zextInto(bits, t, a)
			a = t
		}
		if bits < 64 {
			t := is.temp()
			is.emit3(fiBinMap[gi.op], t, a, b)
			switch gi.op {
			case LOpAnd, LOpOr, LOpXor, LOpAShr, LOpSRem:
				is.emit3(vt.MovRR, d, t, mnone)
			default:
				is.canonInto(bits, d, t)
			}
		} else {
			is.emit3(fiBinMap[gi.op], d, a, b)
		}

	case gopMulWide:
		m := newMinst(vt.MulWideU)
		m.rd, m.rc, m.ra, m.rb = r(gi.dst), r(gi.dst2), r(gi.srcs[0]), r(gi.srcs[1])
		is.emit(m)

	case LOpICmp:
		m := newMinst(vt.SetCC)
		m.cond = vt.Cond(gi.pred)
		m.rd, m.ra, m.rb = r(gi.dst), r(gi.srcs[0]), r(gi.srcs[1])
		is.emit(m)
	case LOpFCmp:
		m := newMinst(vt.FCmp)
		m.cond = vt.Cond(gi.pred)
		m.rd, m.ra, m.rb = r(gi.dst), r(gi.srcs[0]), r(gi.srcs[1])
		is.emit(m)

	case LOpZExt:
		is.zextInto(g.gvrBits(gi.srcs[0]), r(gi.dst), r(gi.srcs[0]))
	case LOpSExt:
		is.emit3(vt.MovRR, r(gi.dst), r(gi.srcs[0]), mnone)
	case LOpTrunc:
		is.canonInto(gi.ty.Bits, r(gi.dst), r(gi.srcs[0]))
	case LOpSIToFP:
		is.emit3(vt.CvtSI2F, r(gi.dst), r(gi.srcs[0]), mnone)
	case LOpFPToSI:
		t := is.temp()
		is.emit3(vt.CvtF2SI, t, r(gi.srcs[0]), mnone)
		is.canonInto(gi.ty.Bits, r(gi.dst), t)
	case LOpBitcast:
		if gi.ty == TDouble {
			is.emit3(vt.MovFR, r(gi.dst), r(gi.srcs[0]), mnone)
		} else {
			is.emit3(vt.MovRF, r(gi.dst), r(gi.srcs[0]), mnone)
		}

	case LOpFAdd, LOpFSub, LOpFMul, LOpFDiv:
		var op vt.Op
		switch gi.op {
		case LOpFAdd:
			op = vt.FAdd
		case LOpFSub:
			op = vt.FSub
		case LOpFMul:
			op = vt.FMul
		default:
			op = vt.FDiv
		}
		is.emit3(op, r(gi.dst), r(gi.srcs[0]), r(gi.srcs[1]))
	case LOpFNeg:
		t := is.temp()
		is.emit3(vt.MovRF, t, r(gi.srcs[0]), mnone)
		t2 := is.temp()
		is.emitMovI(t2, -1<<63)
		t3 := is.temp()
		is.emit3(vt.Xor, t3, t, t2)
		is.emit3(vt.MovFR, r(gi.dst), t3, mnone)

	case LOpGEP:
		base := r(gi.srcs[0])
		d := r(gi.dst)
		if gi.srcs[1] != gnone {
			idx := r(gi.srcs[1])
			t := is.temp()
			if gi.scale != 1 {
				is.emitImm(vt.MulI, t, idx, gi.scale)
			} else {
				is.emit3(vt.MovRR, t, idx, mnone)
			}
			t2 := is.temp()
			is.emit3(vt.Add, t2, base, t)
			is.emitImm(vt.Lea, d, t2, gi.imm)
		} else {
			is.emitImm(vt.Lea, d, base, gi.imm)
		}

	case LOpLoad:
		is.lowerLoad(gi.ty, mval{a: r(gi.dst), b: mnone}, r(gi.srcs[0]), 0, gi.unchecked)
	case gopLoadPair:
		is.emitImm(vt.Load64.UncheckedIf(gi.unchecked), r(gi.dst), r(gi.srcs[0]), 0)
		is.emitImm(vt.Load64.UncheckedIf(gi.unchecked), r(gi.dst2), r(gi.srcs[0]), 8)
	case LOpStore:
		is.lowerStore(g.gvrType(gi.srcs[1]), mval{a: r(gi.srcs[1]), b: mnone}, r(gi.srcs[0]), 0, gi.unchecked)
	case gopStorePair:
		m := newMinst(vt.Store64.UncheckedIf(gi.unchecked))
		m.ra, m.rb = r(gi.srcs[0]), r(gi.srcs[1])
		is.emit(m)
		m2 := newMinst(vt.Store64.UncheckedIf(gi.unchecked))
		m2.ra, m2.rb, m2.imm = r(gi.srcs[0]), r(gi.srcs[2]), 8
		is.emit(m2)
	case LOpSelect:
		is.lowerSelect(mval{a: r(gi.dst), b: mnone}, r(gi.srcs[0]),
			mval{a: r(gi.srcs[1]), b: mnone}, mval{a: r(gi.srcs[2]), b: mnone}, gi.ty)

	case LOpCallRT:
		reg := 0
		for _, a := range gi.args {
			if reg >= len(is.tgt.IntArgs) {
				return fmt.Errorf("too many call arguments")
			}
			if g.gvrType(a).Kind == KDouble {
				t := is.temp()
				is.emit3(vt.MovRF, t, r(a), mnone)
				is.emit3(vt.MovRR, mpreg(is.tgt.IntArgs[reg]), t, mnone)
			} else {
				is.emit3(vt.MovRR, mpreg(is.tgt.IntArgs[reg]), r(a), mnone)
			}
			reg++
		}
		c := newMinst(vt.CallRT)
		c.imm = int64(gi.rtid)
		c.isCall = true
		is.emit(c)
		if gi.dst != gnone {
			if g.gvrType(gi.dst).Kind == KDouble {
				is.emit3(vt.MovFR, r(gi.dst), mpreg(is.tgt.IntRet[0]), mnone)
			} else {
				is.emit3(vt.MovRR, r(gi.dst), mpreg(is.tgt.IntRet[0]), mnone)
			}
		}
		if gi.dst2 != gnone {
			is.emit3(vt.MovRR, r(gi.dst2), mpreg(is.tgt.IntRet[1]), mnone)
		}

	case LOpIntrinsic:
		switch gi.intr {
		case IntrCrc32:
			is.emit3(vt.Crc32, r(gi.dst), r(gi.srcs[0]), r(gi.srcs[1]))
		case IntrRotr:
			is.emit3(vt.Rotr, r(gi.dst), r(gi.srcs[0]), r(gi.srcs[1]))
			is.canonInto(gi.ty.Bits, r(gi.dst), r(gi.dst))
		case IntrSAddOv, IntrSSubOv, IntrSMulOv:
			return g.selectOvf(gi, r)
		default:
			return fmt.Errorf("unimplemented intrinsic %s", gi.intr)
		}

	case LOpExtractVal:
		// Narrow {iN, i1} extraction from expanded intrinsics.
		src := gi.srcs[0]
		_ = src
		return fmt.Errorf("unexpanded extractvalue survived legalization")

	case LOpPhi:
		p := newMinst(vt.Nop)
		p.rd = r(gi.dst)
		p.phi = &phiInfo{}
		for k := range gi.phiSrcs {
			p.phi.srcs = append(p.phi.srcs, r(gi.phiSrcs[k]))
			p.phi.blocks = append(p.phi.blocks, gi.phiBlocks[k])
		}
		is.emit(p)

	case LOpBr:
		is.emitBr(gi.thenB)
	case LOpCondBr:
		is.emitCondBr(r(gi.srcs[0]), gi.thenB, gi.elseB)
	case LOpRet:
		if gi.srcs[0] != gnone {
			if g.gvrType(gi.srcs[0]).Kind == KDouble {
				is.emit3(vt.MovRF, mpreg(is.tgt.IntRet[0]), r(gi.srcs[0]), mnone)
			} else {
				is.emit3(vt.MovRR, mpreg(is.tgt.IntRet[0]), r(gi.srcs[0]), mnone)
			}
		}
		is.emit(newMinst(vt.Ret))
	case gopRetPair:
		is.emit3(vt.MovRR, mpreg(is.tgt.IntRet[0]), r(gi.srcs[0]), mnone)
		is.emit3(vt.MovRR, mpreg(is.tgt.IntRet[1]), r(gi.srcs[1]), mnone)
		is.emit(newMinst(vt.Ret))
	case LOpUnreachable:
		m := newMinst(vt.Trap)
		m.imm = int64(vt.TrapUnreachable)
		is.emit(m)

	default:
		return fmt.Errorf("cannot select %s", gi.op)
	}
	return nil
}

// selectOvf expands narrow overflow intrinsics at selection time.
func (g *gISel) selectOvf(gi *ginst, r func(gvr) mreg) error {
	is := g.isel
	bits := gi.ty.Fields[0].Bits
	a, b := r(gi.srcs[0]), r(gi.srcs[1])
	val, flag := r(gi.dst), r(gi.dst2)
	if flag == mnone {
		flag = is.temp()
	}
	if bits < 64 {
		var op vt.Op
		switch gi.intr {
		case IntrSAddOv:
			op = vt.Add
		case IntrSSubOv:
			op = vt.Sub
		default:
			op = vt.Mul
		}
		wide := is.temp()
		is.emit3(op, wide, a, b)
		is.canonInto(bits, val, wide)
		m := newMinst(vt.SetCC)
		m.cond = vt.CondNE
		m.rd, m.ra, m.rb = flag, val, wide
		is.emit(m)
		return nil
	}
	switch gi.intr {
	case IntrSAddOv, IntrSSubOv:
		op := vt.Add
		if gi.intr == IntrSSubOv {
			op = vt.Sub
		}
		is.emit3(op, val, a, b)
		t1, t2 := is.temp(), is.temp()
		if gi.intr == IntrSAddOv {
			is.emit3(vt.Xor, t1, val, a)
			is.emit3(vt.Xor, t2, val, b)
		} else {
			is.emit3(vt.Xor, t1, a, b)
			is.emit3(vt.Xor, t2, val, a)
		}
		t3 := is.temp()
		is.emit3(vt.And, t3, t1, t2)
		is.emitImm(vt.ShrI, flag, t3, 63)
	default:
		hi := is.temp()
		m := newMinst(vt.MulWideS)
		m.rd, m.rc, m.ra, m.rb = val, hi, a, b
		is.emit(m)
		t := is.temp()
		is.emitImm(vt.SarI, t, val, 63)
		t2 := is.temp()
		is.emit3(vt.Xor, t2, t, hi)
		z := is.temp()
		is.emitMovI(z, 0)
		sc := newMinst(vt.SetCC)
		sc.cond = vt.CondNE
		sc.rd, sc.ra, sc.rb = flag, t2, z
		is.emit(sc)
	}
	return nil
}

// gf is stored for type queries during selection.
func (g *gISel) gvrType(v gvr) *Type {
	if v == gnone {
		return TVoid
	}
	return g.gtypes[v]
}

func (g *gISel) gvrBits(v gvr) int {
	t := g.gvrType(v)
	if t.Kind == KInt {
		return t.Bits
	}
	return 64
}
