package lbe

import (
	"fmt"

	"qcc/internal/vt"
)

// emitNode selects and schedules one node (DFS over operands and chain),
// setting n.res.
func (dag *selectionDAG) emitNode(n *dnode) error {
	if n.visited {
		return nil
	}
	n.visited = true
	n.res = mval{a: mnone, b: mnone}
	if n.chain != nil {
		if err := dag.emitNode(n.chain); err != nil {
			return err
		}
	}
	if n.special == specCopyFromReg {
		n.res = n.vr
		return nil
	}
	if n.special == specProj {
		base := n.ops[0]
		if err := dag.emitNode(base); err != nil {
			return err
		}
		if n.imm == 0 {
			n.res = mval{a: base.res.a, b: mnone}
		} else {
			n.res = mval{a: base.res.b, b: mnone}
		}
		return nil
	}
	// Wide nodes with legalized halves (skip self-projections: those
	// nodes materialize their own pair below).
	if n.lo != nil && !(n.lo.special == specProj && len(n.lo.ops) == 1 && n.lo.ops[0] == n) {
		if err := dag.emitNode(n.lo); err != nil {
			return err
		}
		if err := dag.emitNode(n.hi); err != nil {
			return err
		}
		n.res = mval{a: n.lo.res.a, b: n.hi.res.a}
		return nil
	}
	emitOps := func() error {
		for _, op := range n.ops {
			if err := dag.emitNode(op); err != nil {
				return err
			}
		}
		return nil
	}

	switch n.op {
	case LOpConst:
		if wideType(n.ty) {
			lo, hi := dag.temp(), dag.temp()
			dag.emitMovI(lo, n.imm)
			dag.emitMovI(hi, n.imm2)
			n.res = mval{a: lo, b: hi}
			return nil
		}
		d := dag.temp()
		dag.emitMovI(d, n.imm)
		n.res = mval{a: d, b: mnone}
	case LOpConstF:
		d := dag.mf.newVReg(vt.FPR)
		m := newMinst(vt.FMovRI)
		m.rd, m.imm = d, n.imm
		dag.emit(m)
		n.res = mval{a: d, b: mnone}
	case LOpNull:
		d := dag.temp()
		dag.emitMovI(d, 0)
		n.res = mval{a: d, b: mnone}
	case LOpFuncAddr:
		d := dag.temp()
		m := newMinst(vt.MovRI)
		m.rd, m.sym = d, n.sym
		dag.emit(m)
		n.res = mval{a: d, b: mnone}

	case LOpAdd, LOpSub, LOpMul, LOpSDiv, LOpSRem, LOpUDiv, LOpURem,
		LOpAnd, LOpOr, LOpXor, LOpShl, LOpLShr, LOpAShr:
		if err := emitOps(); err != nil {
			return err
		}
		bits := n.ty.Bits
		a := n.ops[0].res.a
		b := n.ops[1].res.a
		if n.op == LOpLShr && bits < 64 {
			t := dag.temp()
			dag.zextInto(bits, t, a)
			a = t
		}
		d := dag.temp()
		// Immediate form when the right operand is a constant (the
		// pattern-selection payoff of the DAG).
		if c, ok := isConst(n.ops[1]); ok && immForm[fiBinMap[n.op]] != 0 {
			dag.emitImm(immForm[fiBinMap[n.op]], d, a, c)
		} else {
			dag.emit3(fiBinMap[n.op], d, a, b)
		}
		if bits < 64 {
			switch n.op {
			case LOpAnd, LOpOr, LOpXor, LOpAShr, LOpSRem:
			default:
				t := dag.temp()
				dag.canonInto(bits, t, d)
				d = t
			}
		}
		n.res = mval{a: d, b: mnone}

	case LOpICmp:
		if wideType(n.ops[0].ty) {
			return dag.emitICmp128(n)
		}
		if err := emitOps(); err != nil {
			return err
		}
		d := dag.temp()
		m := newMinst(vt.SetCC)
		m.cond = vt.Cond(n.pred)
		m.rd, m.ra, m.rb = d, n.ops[0].res.a, n.ops[1].res.a
		dag.emit(m)
		n.res = mval{a: d, b: mnone}
	case LOpFCmp:
		if err := emitOps(); err != nil {
			return err
		}
		d := dag.temp()
		m := newMinst(vt.FCmp)
		m.cond = vt.Cond(n.pred)
		m.rd, m.ra, m.rb = d, n.ops[0].res.a, n.ops[1].res.a
		dag.emit(m)
		n.res = mval{a: d, b: mnone}

	case LOpZExt:
		if err := emitOps(); err != nil {
			return err
		}
		d := dag.temp()
		dag.zextInto(n.ops[0].ty.Bits, d, n.ops[0].res.a)
		n.res = mval{a: d, b: mnone}
	case LOpSExt:
		if err := emitOps(); err != nil {
			return err
		}
		n.res = mval{a: n.ops[0].res.a, b: mnone}
	case LOpTrunc:
		if err := emitOps(); err != nil {
			return err
		}
		src := n.ops[0].res.a // wide source: low half
		d := dag.temp()
		dag.canonInto(n.ty.Bits, d, src)
		n.res = mval{a: d, b: mnone}
	case LOpSIToFP:
		if err := emitOps(); err != nil {
			return err
		}
		d := dag.mf.newVReg(vt.FPR)
		dag.emit3(vt.CvtSI2F, d, n.ops[0].res.a, mnone)
		n.res = mval{a: d, b: mnone}
	case LOpFPToSI:
		if err := emitOps(); err != nil {
			return err
		}
		t := dag.temp()
		dag.emit3(vt.CvtF2SI, t, n.ops[0].res.a, mnone)
		d := dag.temp()
		dag.canonInto(n.ty.Bits, d, t)
		n.res = mval{a: d, b: mnone}
	case LOpBitcast:
		if err := emitOps(); err != nil {
			return err
		}
		if n.ty == TDouble {
			d := dag.mf.newVReg(vt.FPR)
			dag.emit3(vt.MovFR, d, n.ops[0].res.a, mnone)
			n.res = mval{a: d, b: mnone}
		} else {
			d := dag.temp()
			dag.emit3(vt.MovRF, d, n.ops[0].res.a, mnone)
			n.res = mval{a: d, b: mnone}
		}

	case LOpFAdd, LOpFSub, LOpFMul, LOpFDiv:
		if err := emitOps(); err != nil {
			return err
		}
		var op vt.Op
		switch n.op {
		case LOpFAdd:
			op = vt.FAdd
		case LOpFSub:
			op = vt.FSub
		case LOpFMul:
			op = vt.FMul
		default:
			op = vt.FDiv
		}
		d := dag.mf.newVReg(vt.FPR)
		dag.emit3(op, d, n.ops[0].res.a, n.ops[1].res.a)
		n.res = mval{a: d, b: mnone}
	case LOpFNeg:
		if err := emitOps(); err != nil {
			return err
		}
		t := dag.temp()
		dag.emit3(vt.MovRF, t, n.ops[0].res.a, mnone)
		t2 := dag.temp()
		dag.emitMovI(t2, -1<<63)
		t3 := dag.temp()
		dag.emit3(vt.Xor, t3, t, t2)
		d := dag.mf.newVReg(vt.FPR)
		dag.emit3(vt.MovFR, d, t3, mnone)
		n.res = mval{a: d, b: mnone}

	case LOpGEP:
		if err := emitOps(); err != nil {
			return err
		}
		d := dag.temp()
		base := n.ops[0].res.a
		if len(n.ops) > 1 {
			idx := n.ops[1].res.a
			t := dag.temp()
			if n.scale != 1 {
				dag.emitImm(vt.MulI, t, idx, n.scale)
			} else {
				dag.emit3(vt.MovRR, t, idx, mnone)
			}
			t2 := dag.temp()
			dag.emit3(vt.Add, t2, base, t)
			dag.emitImm(vt.Lea, d, t2, n.imm)
		} else {
			dag.emitImm(vt.Lea, d, base, n.imm)
		}
		n.res = mval{a: d, b: mnone}

	case LOpLoad:
		addr, disp, err := dag.emitAddr(n.ops[0])
		if err != nil {
			return err
		}
		var mv mval
		mv.a = dag.mf.newVReg(classFor(loadHalfType(n.ty)))
		mv.b = mnone
		if wideType(n.ty) {
			mv.b = dag.temp()
		}
		dag.lowerLoad(n.ty, mv, addr, disp, n.unchecked)
		n.res = mv
	case LOpStore:
		addr, disp, err := dag.emitAddr(n.ops[0])
		if err != nil {
			return err
		}
		if err := dag.emitNode(n.ops[1]); err != nil {
			return err
		}
		dag.lowerStore(n.ops[1].ty, n.ops[1].res, addr, disp, n.unchecked)
	case LOpSelect:
		if err := emitOps(); err != nil {
			return err
		}
		var d mval
		d.a = dag.mf.newVReg(classFor(n.ty))
		d.b = mnone
		dag.lowerSelect(d, n.ops[0].res.a, n.ops[1].res, n.ops[2].res, n.ty)
		n.res = d

	case LOpCallRT:
		if err := emitOps(); err != nil {
			return err
		}
		return dag.emitCallNode(n)

	case LOpIntrinsic:
		return dag.emitIntrinsicNode(n)

	case LOpExtractVal:
		src := n.ops[0]
		if err := dag.emitNode(src); err != nil {
			return err
		}
		if wideType(n.ty) {
			// i128 value of a {i128, i1} intrinsic result.
			n.res = mval{a: src.res.a, b: src.res.b}
			return nil
		}
		if src.op == LOpIntrinsic && src.ty.Kind == KStruct && src.ty.Fields[0].Bits == 128 {
			if n.imm == 1 {
				n.res = mval{a: dag.flags[src], b: mnone}
				return nil
			}
			n.res = mval{a: src.res.a, b: src.res.b}
			return nil
		}
		if n.imm == 0 {
			n.res = mval{a: src.res.a, b: mnone}
		} else {
			n.res = mval{a: src.res.b, b: mnone}
		}

	case LOpBr:
		dag.emitBr(n.thenB)
	case LOpCondBr:
		// Pattern: fuse a single-use integer compare into the branch
		// (the selection payoff over FastISel's SetCC+BrNZ pair).
		cmp := n.ops[0]
		if cmp.op == LOpICmp && cmp.special == specNone && cmp.nuses == 1 &&
			!cmp.visited && !wideType(cmp.ops[0].ty) {
			if err := dag.emitNode(cmp.ops[0]); err != nil {
				return err
			}
			if err := dag.emitNode(cmp.ops[1]); err != nil {
				return err
			}
			cmp.visited = true
			m := newMinst(vt.BrCC)
			m.cond = vt.Cond(cmp.pred)
			m.ra = cmp.ops[0].res.a
			m.rb = cmp.ops[1].res.a
			m.target = n.thenB
			dag.emit(m)
			m2 := newMinst(vt.Br)
			m2.target = n.elseB
			dag.emit(m2)
			dag.mf.blocks[dag.cur].succs = append(dag.mf.blocks[dag.cur].succs, n.thenB, n.elseB)
			return nil
		}
		if err := emitOps(); err != nil {
			return err
		}
		dag.emitCondBr(n.ops[0].res.a, n.thenB, n.elseB)
	case LOpRet:
		if err := emitOps(); err != nil {
			return err
		}
		if len(n.ops) > 0 {
			mv := n.ops[0].res
			if n.ops[0].ty.Kind == KDouble {
				dag.emit3(vt.MovRF, mpreg(dag.tgt.IntRet[0]), mv.a, mnone)
			} else {
				dag.emit3(vt.MovRR, mpreg(dag.tgt.IntRet[0]), mv.a, mnone)
				if mv.b != mnone {
					dag.emit3(vt.MovRR, mpreg(dag.tgt.IntRet[1]), mv.b, mnone)
				}
			}
		}
		dag.emit(newMinst(vt.Ret))
	case LOpUnreachable:
		m := newMinst(vt.Trap)
		m.imm = int64(vt.TrapUnreachable)
		dag.emit(m)

	default:
		return fmt.Errorf("lbe: dag cannot select %s", n.op)
	}
	return nil
}

// emitAddr resolves a memory address, folding a constant-offset GEP into
// the instruction displacement (the addressing-mode pattern match).
func (dag *selectionDAG) emitAddr(n *dnode) (mreg, int64, error) {
	if n.op == LOpGEP && n.special == specNone && len(n.ops) == 1 && !n.visited && n.nuses == 1 {
		if err := dag.emitNode(n.ops[0]); err != nil {
			return mnone, 0, err
		}
		n.visited = true
		return n.ops[0].res.a, n.imm, nil
	}
	if err := dag.emitNode(n); err != nil {
		return mnone, 0, err
	}
	return n.res.a, 0, nil
}

func loadHalfType(t *Type) *Type {
	if t.Kind == KDouble {
		return TDouble
	}
	return TI64
}

var immForm = map[vt.Op]vt.Op{
	vt.Add: vt.AddI, vt.Sub: vt.SubI, vt.Mul: vt.MulI,
	vt.And: vt.AndI, vt.Or: vt.OrI, vt.Xor: vt.XorI,
	vt.Shl: vt.ShlI, vt.Shr: vt.ShrI, vt.Sar: vt.SarI,
}

// emitICmp128 expands a comparison of wide operands.
func (dag *selectionDAG) emitICmp128(n *dnode) error {
	if err := dag.legalizeOperand(n.ops[0]); err != nil {
		return err
	}
	if err := dag.legalizeOperand(n.ops[1]); err != nil {
		return err
	}
	for _, op := range n.ops {
		if err := dag.emitNode(op); err != nil {
			return err
		}
	}
	alo, ahi := n.ops[0].res.a, n.ops[0].res.b
	blo, bhi := n.ops[1].res.a, n.ops[1].res.b
	d := dag.temp()
	switch c := vt.Cond(n.pred); c {
	case vt.CondEQ, vt.CondNE:
		t1, t2 := dag.temp(), dag.temp()
		dag.emit3(vt.Xor, t1, alo, blo)
		dag.emit3(vt.Xor, t2, ahi, bhi)
		t3 := dag.temp()
		dag.emit3(vt.Or, t3, t1, t2)
		z := dag.temp()
		dag.emitMovI(z, 0)
		m := newMinst(vt.SetCC)
		m.cond = c
		m.rd, m.ra, m.rb = d, t3, z
		dag.emit(m)
	default:
		strict, uc := splitWideCmp(c)
		t1, t2, t3 := dag.temp(), dag.temp(), dag.temp()
		m := newMinst(vt.SetCC)
		m.cond = strict
		m.rd, m.ra, m.rb = t1, ahi, bhi
		dag.emit(m)
		m2 := newMinst(vt.SetCC)
		m2.cond = vt.CondEQ
		m2.rd, m2.ra, m2.rb = t2, ahi, bhi
		dag.emit(m2)
		m3 := newMinst(vt.SetCC)
		m3.cond = uc
		m3.rd, m3.ra, m3.rb = t3, alo, blo
		dag.emit(m3)
		t4 := dag.temp()
		dag.emit3(vt.And, t4, t2, t3)
		dag.emit3(vt.Or, d, t1, t4)
	}
	n.res = mval{a: d, b: mnone}
	return nil
}

func splitWideCmp(c vt.Cond) (strict, lo vt.Cond) {
	switch c {
	case vt.CondSLT:
		return vt.CondSLT, vt.CondULT
	case vt.CondSLE:
		return vt.CondSLT, vt.CondULE
	case vt.CondSGT:
		return vt.CondSGT, vt.CondUGT
	case vt.CondSGE:
		return vt.CondSGT, vt.CondUGE
	case vt.CondULT:
		return vt.CondULT, vt.CondULT
	case vt.CondULE:
		return vt.CondULT, vt.CondULE
	case vt.CondUGT:
		return vt.CondUGT, vt.CondUGT
	default:
		return vt.CondUGT, vt.CondUGE
	}
}

// emitCallNode stages call arguments (wide values in two registers) and
// binds results.
func (dag *selectionDAG) emitCallNode(n *dnode) error {
	reg := 0
	stage := func(r mreg) error {
		if reg >= len(dag.tgt.IntArgs) {
			return fmt.Errorf("lbe: too many call arguments")
		}
		dag.emit3(vt.MovRR, mpreg(dag.tgt.IntArgs[reg]), r, mnone)
		reg++
		return nil
	}
	for _, op := range n.ops {
		if op.ty.Kind == KDouble {
			t := dag.temp()
			dag.emit3(vt.MovRF, t, op.res.a, mnone)
			if err := stage(t); err != nil {
				return err
			}
			continue
		}
		if err := stage(op.res.a); err != nil {
			return err
		}
		if op.res.b != mnone {
			if err := stage(op.res.b); err != nil {
				return err
			}
		}
	}
	c := newMinst(vt.CallRT)
	c.imm = int64(n.rtid)
	c.isCall = true
	dag.emit(c)
	if n.ty != TVoid {
		if n.ty.Kind == KDouble {
			d := dag.mf.newVReg(vt.FPR)
			dag.emit3(vt.MovFR, d, mpreg(dag.tgt.IntRet[0]), mnone)
			n.res = mval{a: d, b: mnone}
		} else {
			a := dag.temp()
			dag.emit3(vt.MovRR, a, mpreg(dag.tgt.IntRet[0]), mnone)
			b := mnone
			if wideType(n.ty) {
				b = dag.temp()
				dag.emit3(vt.MovRR, b, mpreg(dag.tgt.IntRet[1]), mnone)
			}
			n.res = mval{a: a, b: b}
		}
	}
	return nil
}

// emitIntrinsicNode handles overflow intrinsics (including the i128 forms
// that FastISel cannot), crc32, rotr, and the internal mul-wide node.
func (dag *selectionDAG) emitIntrinsicNode(n *dnode) error {
	for _, op := range n.ops {
		if wideType(op.ty) {
			if err := dag.legalizeOperand(op); err != nil {
				return err
			}
		}
		if err := dag.emitNode(op); err != nil {
			return err
		}
	}
	switch n.intr {
	case IntrCrc32:
		d := dag.temp()
		dag.emit3(vt.Crc32, d, n.ops[0].res.a, n.ops[1].res.a)
		n.res = mval{a: d, b: mnone}
		return nil
	case IntrRotr:
		d := dag.temp()
		dag.emit3(vt.Rotr, d, n.ops[0].res.a, n.ops[1].res.a)
		dag.canonInto(n.ty.Bits, d, d)
		n.res = mval{a: d, b: mnone}
		return nil
	case intrMulWide:
		lo, hi := dag.temp(), dag.temp()
		m := newMinst(vt.MulWideU)
		m.rd, m.rc, m.ra, m.rb = lo, hi, n.ops[0].res.a, n.ops[1].res.a
		dag.emit(m)
		n.res = mval{a: lo, b: hi}
		return nil
	case IntrSAddOv, IntrSSubOv, IntrSMulOv:
		if n.ty.Fields[0].Bits <= 64 {
			// Delegate to the shared ≤64-bit expansion through a
			// synthetic value mapping.
			return dag.emitOvfNarrow(n)
		}
		return dag.emitOvf128(n)
	}
	return fmt.Errorf("lbe: dag cannot select intrinsic %s", n.intr)
}

func (dag *selectionDAG) emitOvfNarrow(n *dnode) error {
	bits := n.ty.Fields[0].Bits
	a, b := n.ops[0].res.a, n.ops[1].res.a
	val, flag := dag.temp(), dag.temp()
	if bits < 64 {
		var op vt.Op
		switch n.intr {
		case IntrSAddOv:
			op = vt.Add
		case IntrSSubOv:
			op = vt.Sub
		default:
			op = vt.Mul
		}
		wide := dag.temp()
		dag.emit3(op, wide, a, b)
		dag.canonInto(bits, val, wide)
		m := newMinst(vt.SetCC)
		m.cond = vt.CondNE
		m.rd, m.ra, m.rb = flag, val, wide
		dag.emit(m)
	} else {
		switch n.intr {
		case IntrSAddOv, IntrSSubOv:
			op := vt.Add
			if n.intr == IntrSSubOv {
				op = vt.Sub
			}
			dag.emit3(op, val, a, b)
			t1, t2 := dag.temp(), dag.temp()
			if n.intr == IntrSAddOv {
				dag.emit3(vt.Xor, t1, val, a)
				dag.emit3(vt.Xor, t2, val, b)
			} else {
				dag.emit3(vt.Xor, t1, a, b)
				dag.emit3(vt.Xor, t2, val, a)
			}
			t3 := dag.temp()
			dag.emit3(vt.And, t3, t1, t2)
			dag.emitImm(vt.ShrI, flag, t3, 63)
		default:
			hi := dag.temp()
			m := newMinst(vt.MulWideS)
			m.rd, m.rc, m.ra, m.rb = val, hi, a, b
			dag.emit(m)
			t := dag.temp()
			dag.emitImm(vt.SarI, t, val, 63)
			t2 := dag.temp()
			dag.emit3(vt.Xor, t2, t, hi)
			z := dag.temp()
			dag.emitMovI(z, 0)
			sc := newMinst(vt.SetCC)
			sc.cond = vt.CondNE
			sc.rd, sc.ra, sc.rb = flag, t2, z
			dag.emit(sc)
		}
	}
	n.res = mval{a: val, b: flag}
	return nil
}

// emitOvf128 expands 128-bit checked add/sub: the value pair goes in res,
// the flag in dagFlagOf.
func (dag *selectionDAG) emitOvf128(n *dnode) error {
	alo, ahi := n.ops[0].res.a, n.ops[0].res.b
	blo, bhi := n.ops[1].res.a, n.ops[1].res.b
	lo, hi, flag := dag.temp(), dag.temp(), dag.temp()
	switch n.intr {
	case IntrSAddOv:
		dag.emit3(vt.Add, lo, alo, blo)
		carry := dag.temp()
		m := newMinst(vt.SetCC)
		m.cond = vt.CondULT
		m.rd, m.ra, m.rb = carry, lo, alo
		dag.emit(m)
		t := dag.temp()
		dag.emit3(vt.Add, t, ahi, bhi)
		dag.emit3(vt.Add, hi, t, carry)
		t1, t2 := dag.temp(), dag.temp()
		dag.emit3(vt.Xor, t1, hi, ahi)
		dag.emit3(vt.Xor, t2, hi, bhi)
		t3 := dag.temp()
		dag.emit3(vt.And, t3, t1, t2)
		dag.emitImm(vt.ShrI, flag, t3, 63)
	case IntrSSubOv:
		borrow := dag.temp()
		m := newMinst(vt.SetCC)
		m.cond = vt.CondULT
		m.rd, m.ra, m.rb = borrow, alo, blo
		dag.emit(m)
		dag.emit3(vt.Sub, lo, alo, blo)
		t := dag.temp()
		dag.emit3(vt.Sub, t, ahi, bhi)
		dag.emit3(vt.Sub, hi, t, borrow)
		t1, t2 := dag.temp(), dag.temp()
		dag.emit3(vt.Xor, t1, ahi, bhi)
		dag.emit3(vt.Xor, t2, hi, ahi)
		t3 := dag.temp()
		dag.emit3(vt.And, t3, t1, t2)
		dag.emitImm(vt.ShrI, flag, t3, 63)
	default:
		return fmt.Errorf("lbe: 128-bit smul.with.overflow should use the runtime helper")
	}
	n.res = mval{a: lo, b: hi}
	if dag.flags == nil {
		dag.flags = map[*dnode]mreg{}
	}
	dag.flags[n] = flag
	return nil
}
