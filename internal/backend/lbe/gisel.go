package lbe

import (
	"fmt"

	"qcc/internal/vt"
)

// GlobalISel: the long-term replacement selector the paper benchmarks on
// AArch64 (Figure 3). It runs as four separate passes, each iterating over
// and rewriting the entire IR — the multi-pass cost the paper identifies:
//
//	IRTranslator      LIR -> generic MIR (gMIR), 128-bit values stay whole
//	Legalizer         split unsupported types into 64-bit pieces
//	RegBankSelect     assign a register bank to every generic vreg
//	InstructionSelect map generic operations onto machine instructions

type gvr = int32

const gnone gvr = -1

// ginst is one generic machine instruction.
type ginst struct {
	op    Opcode
	ty    *Type
	dst   gvr
	dst2  gvr // overflow flag / second result
	srcs  [3]gvr
	args  []gvr // call arguments
	imm   int64
	imm2  int64
	scale int64
	pred  uint8
	rtid  uint32
	intr  IntrinsicID
	sym   int32
	thenB int32
	elseB int32
	// phi incoming values.
	phiSrcs   []gvr
	phiBlocks []int32
	// unchecked carries the LIR check-elimination mark for loads/stores.
	unchecked bool
}

type gfunc struct {
	blocks [][]ginst
	types  []*Type
	banks  []vt.RegClass
}

func (gf *gfunc) newGVR(t *Type) gvr {
	gf.types = append(gf.types, t)
	gf.banks = append(gf.banks, vt.GPR)
	return gvr(len(gf.types) - 1)
}

// gISel drives the four passes.
type gISel struct {
	*isel
	gtypes []*Type
	flagOf map[gvr]gvr // overflow flag gvr of wide intrinsic results
}

func (g *gISel) run(fn *Fn) (*mfunc, error) {
	g.flagOf = map[gvr]gvr{}
	gf, err := g.irTranslate(fn)
	if err != nil {
		return nil, err
	}
	g.stats.Count("gisel_translated", int64(len(gf.types)))
	if err := g.legalize(gf); err != nil {
		return nil, err
	}
	g.regBankSelect(gf)
	g.gtypes = gf.types
	return g.instructionSelect(fn, gf)
}

// irTranslate builds gMIR 1:1 from LIR; wide values remain single vregs.
func (g *gISel) irTranslate(fn *Fn) (*gfunc, error) {
	gf := &gfunc{}
	vals := map[*Instr]gvr{}
	get := func(v *Instr) gvr {
		if r, ok := vals[v]; ok {
			return r
		}
		r := gf.newGVR(v.Typ)
		vals[v] = r
		return r
	}
	gf.blocks = make([][]ginst, len(fn.Blocks))
	// Parameter copies (incoming args).
	var entry []ginst
	reg := 0
	freg := 0
	for _, p := range fn.Params {
		gi := ginst{op: gopParam, ty: p.Typ, dst: get(p), dst2: gnone, srcs: [3]gvr{gnone, gnone, gnone}}
		if p.Typ.Kind == KDouble {
			gi.imm = int64(g.tgt.FloatArgs[freg])
			gi.imm2 = 1
			freg++
		} else {
			gi.imm = int64(g.tgt.IntArgs[reg])
			reg++
			if wideType(p.Typ) {
				gi.scale = int64(g.tgt.IntArgs[reg])
				reg++
			}
		}
		entry = append(entry, gi)
	}
	for bi, b := range fn.Blocks {
		var out []ginst
		if bi == 0 {
			out = entry
		}
		for _, in := range b.Instrs {
			gi := ginst{
				op: in.Op, ty: in.Typ, dst: gnone, dst2: gnone,
				srcs: [3]gvr{gnone, gnone, gnone},
				imm:  in.Imm, imm2: in.Imm2, scale: in.Scale,
				pred: in.Pred, rtid: in.RTID, intr: in.Intr, sym: -1,
				unchecked: in.Unchecked,
			}
			if in.Op == LOpFuncAddr {
				gi.sym = int32(in.Imm)
			}
			if in.Typ != TVoid && !in.Op.IsTerminator() {
				gi.dst = get(in)
			}
			switch in.Op {
			case LOpPhi:
				for k, op := range in.Ops {
					gi.phiSrcs = append(gi.phiSrcs, get(op))
					gi.phiBlocks = append(gi.phiBlocks, in.Inc[k].id)
				}
			case LOpCallRT:
				for _, op := range in.Ops {
					gi.args = append(gi.args, get(op))
				}
			default:
				for k, op := range in.Ops {
					if k < 3 {
						gi.srcs[k] = get(op)
					} else {
						gi.args = append(gi.args, get(op))
					}
				}
			}
			if in.Then != nil {
				gi.thenB = in.Then.id
			}
			if in.Else != nil {
				gi.elseB = in.Else.id
			}
			out = append(out, gi)
		}
		gf.blocks[bi] = out
	}
	return gf, nil
}

// gopParam is an internal generic opcode for incoming parameters.
const gopParam = Opcode(250)

// legalize splits wide-typed generic instructions into 64-bit pieces,
// iterating over and rewriting the whole function (a full pass).
func (g *gISel) legalize(gf *gfunc) error {
	// Pre-scan constants so shift legalization can see amounts whose
	// defining instruction is rewritten earlier in the pass.
	constVal := map[gvr]int64{}
	for bi := range gf.blocks {
		for i := range gf.blocks[bi] {
			gi := &gf.blocks[bi][i]
			if gi.op == LOpConst && gi.dst != gnone {
				constVal[gi.dst] = gi.imm
			}
		}
	}
	halves := map[gvr][2]gvr{}
	half := func(v gvr) (gvr, gvr) {
		if h, ok := halves[v]; ok {
			return h[0], h[1]
		}
		lo := gf.newGVR(TI64)
		hi := gf.newGVR(TI64)
		halves[v] = [2]gvr{lo, hi}
		return lo, hi
	}
	isWide := func(v gvr) bool { return v != gnone && wideType(gf.types[v]) }

	for bi := range gf.blocks {
		var out []ginst
		emit := func(gi ginst) { out = append(out, gi) }
		bin := func(op Opcode, d, a, b gvr) {
			emit(ginst{op: op, ty: TI64, dst: d, dst2: gnone, srcs: [3]gvr{a, b, gnone}, sym: -1})
		}
		cmp := func(p vt.Cond, d, a, b gvr) {
			emit(ginst{op: LOpICmp, ty: TI1, dst: d, dst2: gnone, pred: uint8(p), srcs: [3]gvr{a, b, gnone}, sym: -1})
		}
		cons := func(v int64) gvr {
			d := gf.newGVR(TI64)
			emit(ginst{op: LOpConst, ty: TI64, dst: d, dst2: gnone, srcs: [3]gvr{gnone, gnone, gnone}, imm: v, sym: -1})
			return d
		}
		for _, gi := range gf.blocks[bi] {
			wideDst := isWide(gi.dst)
			wideSrc := isWide(gi.srcs[0]) || isWide(gi.srcs[1]) || isWide(gi.srcs[2])
			wideArg := false
			for _, a := range gi.args {
				if isWide(a) {
					wideArg = true
				}
			}
			if !wideDst && !wideSrc && !wideArg {
				emit(gi)
				continue
			}
			switch gi.op {
			case gopParam:
				lo, hi := half(gi.dst)
				emit(ginst{op: gopParam, ty: TI64, dst: lo, dst2: gnone, imm: gi.imm, srcs: [3]gvr{gnone, gnone, gnone}, sym: -1})
				emit(ginst{op: gopParam, ty: TI64, dst: hi, dst2: gnone, imm: gi.scale, srcs: [3]gvr{gnone, gnone, gnone}, sym: -1})
			case LOpConst:
				lo, hi := half(gi.dst)
				emit(ginst{op: LOpConst, ty: TI64, dst: lo, dst2: gnone, imm: gi.imm, srcs: [3]gvr{gnone, gnone, gnone}, sym: -1})
				emit(ginst{op: LOpConst, ty: TI64, dst: hi, dst2: gnone, imm: gi.imm2, srcs: [3]gvr{gnone, gnone, gnone}, sym: -1})
			case LOpAdd, LOpSub:
				alo, ahi := half(gi.srcs[0])
				blo, bhi := half(gi.srcs[1])
				dlo, dhi := half(gi.dst)
				if gi.op == LOpAdd {
					bin(LOpAdd, dlo, alo, blo)
					c := gf.newGVR(TI1)
					cmp(vt.CondULT, c, dlo, alo)
					cz := gf.newGVR(TI64)
					emit(ginst{op: LOpZExt, ty: TI64, dst: cz, dst2: gnone, srcs: [3]gvr{c, gnone, gnone}, sym: -1})
					t := gf.newGVR(TI64)
					bin(LOpAdd, t, ahi, bhi)
					bin(LOpAdd, dhi, t, cz)
				} else {
					c := gf.newGVR(TI1)
					cmp(vt.CondULT, c, alo, blo)
					cz := gf.newGVR(TI64)
					emit(ginst{op: LOpZExt, ty: TI64, dst: cz, dst2: gnone, srcs: [3]gvr{c, gnone, gnone}, sym: -1})
					bin(LOpSub, dlo, alo, blo)
					t := gf.newGVR(TI64)
					bin(LOpSub, t, ahi, bhi)
					bin(LOpSub, dhi, t, cz)
				}
			case LOpMul:
				alo, ahi := half(gi.srcs[0])
				blo, bhi := half(gi.srcs[1])
				dlo, dhi := half(gi.dst)
				h0 := gf.newGVR(TI64)
				emit(ginst{op: gopMulWide, ty: TI64, dst: dlo, dst2: h0, srcs: [3]gvr{alo, blo, gnone}, sym: -1})
				c1 := gf.newGVR(TI64)
				bin(LOpMul, c1, alo, bhi)
				c2 := gf.newGVR(TI64)
				bin(LOpMul, c2, ahi, blo)
				t := gf.newGVR(TI64)
				bin(LOpAdd, t, h0, c1)
				bin(LOpAdd, dhi, t, c2)
			case LOpAnd, LOpOr, LOpXor:
				alo, ahi := half(gi.srcs[0])
				blo, bhi := half(gi.srcs[1])
				dlo, dhi := half(gi.dst)
				bin(gi.op, dlo, alo, blo)
				bin(gi.op, dhi, ahi, bhi)
			case LOpShl, LOpLShr, LOpAShr:
				alo, ahi := half(gi.srcs[0])
				dlo, dhi := half(gi.dst)
				if k, ok := constVal[gi.srcs[1]]; ok {
					g.legalShiftG(gf, emit, gi.op, dlo, dhi, alo, ahi, uint(k)&127, cons)
					continue
				}
				// Dynamic amount: the low half is the count.
				var amt gvr
				if isWide(gi.srcs[1]) {
					amt, _ = half(gi.srcs[1])
				} else {
					amt = gi.srcs[1]
				}
				g.dynShiftG(gf, emit, gi.op, dlo, dhi, alo, ahi, amt, cons)
			case LOpICmp:
				alo, ahi := half(gi.srcs[0])
				blo, bhi := half(gi.srcs[1])
				g.legalCmpG(gf, emit, &gi, alo, ahi, blo, bhi)
			case LOpZExt:
				dlo, dhi := half(gi.dst)
				emit(ginst{op: LOpZExt, ty: TI64, dst: dlo, dst2: gnone, srcs: [3]gvr{gi.srcs[0], gnone, gnone}, sym: -1})
				zero := cons(0)
				bin(LOpOr, dhi, zero, zero)
			case LOpSExt:
				dlo, dhi := half(gi.dst)
				z := cons(0)
				bin(LOpOr, dlo, gi.srcs[0], z)
				c63 := cons(63)
				bin(LOpAShr, dhi, gi.srcs[0], c63)
			case LOpTrunc:
				lo, _ := half(gi.srcs[0])
				gi.srcs[0] = lo
				emit(gi)
			case LOpSelect:
				xlo, xhi := half(gi.srcs[1])
				ylo, yhi := half(gi.srcs[2])
				dlo, dhi := half(gi.dst)
				emit(ginst{op: LOpSelect, ty: TI64, dst: dlo, dst2: gnone, srcs: [3]gvr{gi.srcs[0], xlo, ylo}, sym: -1})
				emit(ginst{op: LOpSelect, ty: TI64, dst: dhi, dst2: gnone, srcs: [3]gvr{gi.srcs[0], xhi, yhi}, sym: -1})
			case LOpLoad:
				dlo, dhi := half(gi.dst)
				emit(ginst{op: gopLoadPair, ty: TI64, dst: dlo, dst2: dhi, srcs: [3]gvr{gi.srcs[0], gnone, gnone}, sym: -1, unchecked: gi.unchecked})
			case LOpStore:
				vlo, vhi := half(gi.srcs[1])
				emit(ginst{op: gopStorePair, ty: TVoid, dst: gnone, dst2: gnone, srcs: [3]gvr{gi.srcs[0], vlo, vhi}, sym: -1, unchecked: gi.unchecked})
			case LOpPhi:
				dlo, dhi := half(gi.dst)
				plo := ginst{op: LOpPhi, ty: TI64, dst: dlo, dst2: gnone, srcs: [3]gvr{gnone, gnone, gnone}, phiBlocks: gi.phiBlocks, sym: -1}
				phi := ginst{op: LOpPhi, ty: TI64, dst: dhi, dst2: gnone, srcs: [3]gvr{gnone, gnone, gnone}, phiBlocks: gi.phiBlocks, sym: -1}
				for _, s := range gi.phiSrcs {
					slo, shi := half(s)
					plo.phiSrcs = append(plo.phiSrcs, slo)
					phi.phiSrcs = append(phi.phiSrcs, shi)
				}
				emit(plo)
				emit(phi)
			case LOpCallRT:
				var flat []gvr
				for _, a := range gi.args {
					if isWide(a) {
						lo, hi := half(a)
						flat = append(flat, lo, hi)
					} else {
						flat = append(flat, a)
					}
				}
				gi.args = flat
				if wideDst {
					dlo, dhi := half(gi.dst)
					gi.dst, gi.dst2 = dlo, dhi
					gi.ty = TPair
				}
				emit(gi)
			case LOpIntrinsic:
				if gi.ty.Kind == KStruct && gi.ty.Fields[0].Bits <= 64 {
					// Narrow overflow intrinsic: split the result
					// struct into (value, flag) and keep the
					// instruction for selection.
					vlo, vflag := half(gi.dst)
					gi.dst, gi.dst2 = vlo, vflag
					gf.types[vflag] = TI1
					emit(gi)
					continue
				}
				switch gi.intr {
				case IntrSAddOv, IntrSSubOv:
					alo, ahi := half(gi.srcs[0])
					blo, bhi := half(gi.srcs[1])
					dlo, dhi := half(gi.dst)
					flag := gf.newGVR(TI1)
					g.flagOf[gi.dst] = flag
					if gi.op == LOpIntrinsic && gi.intr == IntrSAddOv {
						bin(LOpAdd, dlo, alo, blo)
						c := gf.newGVR(TI1)
						cmp(vt.CondULT, c, dlo, alo)
						cz := gf.newGVR(TI64)
						emit(ginst{op: LOpZExt, ty: TI64, dst: cz, dst2: gnone, srcs: [3]gvr{c, gnone, gnone}, sym: -1})
						t := gf.newGVR(TI64)
						bin(LOpAdd, t, ahi, bhi)
						bin(LOpAdd, dhi, t, cz)
						t1 := gf.newGVR(TI64)
						bin(LOpXor, t1, dhi, ahi)
						t2 := gf.newGVR(TI64)
						bin(LOpXor, t2, dhi, bhi)
						t3 := gf.newGVR(TI64)
						bin(LOpAnd, t3, t1, t2)
						c63 := cons(63)
						bin(LOpLShr, flag, t3, c63)
					} else {
						c := gf.newGVR(TI1)
						cmp(vt.CondULT, c, alo, blo)
						cz := gf.newGVR(TI64)
						emit(ginst{op: LOpZExt, ty: TI64, dst: cz, dst2: gnone, srcs: [3]gvr{c, gnone, gnone}, sym: -1})
						bin(LOpSub, dlo, alo, blo)
						t := gf.newGVR(TI64)
						bin(LOpSub, t, ahi, bhi)
						bin(LOpSub, dhi, t, cz)
						t1 := gf.newGVR(TI64)
						bin(LOpXor, t1, ahi, bhi)
						t2 := gf.newGVR(TI64)
						bin(LOpXor, t2, dhi, ahi)
						t3 := gf.newGVR(TI64)
						bin(LOpAnd, t3, t1, t2)
						c63 := cons(63)
						bin(LOpLShr, flag, t3, c63)
					}
				default:
					return fmt.Errorf("lbe: gisel cannot legalize intrinsic %s on wide type", gi.intr)
				}
			case LOpExtractVal:
				// Value/flag extraction of expanded intrinsics and
				// struct pairs.
				srcTy := gf.types[gi.srcs[0]]
				if srcTy.Kind == KStruct && srcTy.Fields[0].Bits == 128 && gi.imm == 1 {
					flag, ok := g.flagOf[gi.srcs[0]]
					if !ok {
						return fmt.Errorf("lbe: gisel missing flag for wide intrinsic")
					}
					z := cons(0)
					bin(LOpOr, gi.dst, flag, z)
					continue
				}
				slo, shi := half(gi.srcs[0])
				if wideDst {
					dlo, dhi := half(gi.dst)
					z := cons(0)
					bin(LOpOr, dlo, slo, z)
					bin(LOpOr, dhi, shi, z)
				} else if gi.imm == 0 {
					z := cons(0)
					bin(LOpOr, gi.dst, slo, z)
				} else {
					z := cons(0)
					bin(LOpOr, gi.dst, shi, z)
				}
			case LOpInsertVal:
				slo, shi := half(gi.srcs[0])
				dlo, dhi := half(gi.dst)
				z := cons(0)
				if gi.imm == 0 {
					bin(LOpOr, dlo, gi.srcs[1], z)
					bin(LOpOr, dhi, shi, z)
				} else {
					bin(LOpOr, dlo, slo, z)
					bin(LOpOr, dhi, gi.srcs[1], z)
				}
			case LOpBuildPair:
				dlo, dhi := half(gi.dst)
				z := cons(0)
				bin(LOpOr, dlo, gi.srcs[0], z)
				bin(LOpOr, dhi, gi.srcs[1], z)
			case LOpRet:
				lo, hi := half(gi.srcs[0])
				emit(ginst{op: gopRetPair, ty: TVoid, dst: gnone, dst2: gnone, srcs: [3]gvr{lo, hi, gnone}, sym: -1})
			default:
				return fmt.Errorf("lbe: gisel cannot legalize %s", gi.op)
			}
		}
		gf.blocks[bi] = out
	}
	return nil
}

// Internal generic opcodes introduced by legalization.
const (
	gopMulWide   = Opcode(251)
	gopLoadPair  = Opcode(252)
	gopStorePair = Opcode(253)
	gopRetPair   = Opcode(254)
)

// dynShiftG emits the branch-free dynamic 128-bit shift expansion as
// generic instructions.
func (g *gISel) dynShiftG(gf *gfunc, emit func(ginst), op Opcode, dlo, dhi, alo, ahi, amt gvr, cons func(int64) gvr) {
	bin := func(o Opcode, d, a, b gvr) {
		emit(ginst{op: o, ty: TI64, dst: d, dst2: gnone, srcs: [3]gvr{a, b, gnone}, sym: -1})
	}
	tmp := func() gvr { return gf.newGVR(TI64) }
	sel := func(d, c, x, y gvr) {
		emit(ginst{op: LOpSelect, ty: TI64, dst: d, dst2: gnone, srcs: [3]gvr{c, x, y}, sym: -1})
	}
	n := tmp()
	bin(LOpAnd, n, amt, cons(127))
	big := gf.newGVR(TI1)
	emit(ginst{op: LOpICmp, ty: TI1, dst: big, dst2: gnone, pred: uint8(vt.CondUGE),
		srcs: [3]gvr{n, cons(64), gnone}, sym: -1})
	nm := tmp()
	bin(LOpAnd, nm, n, cons(63))
	inv := tmp()
	bin(LOpSub, inv, cons(63), nm)
	nBig := tmp()
	bin(LOpSub, nBig, n, cons(64))
	shl2 := func(x gvr) gvr { // (x<<1)<<inv
		t := tmp()
		bin(LOpShl, t, x, cons(1))
		t2 := tmp()
		bin(LOpShl, t2, t, inv)
		return t2
	}
	shr2 := func(x gvr) gvr { // (x>>1)>>inv
		t := tmp()
		bin(LOpLShr, t, x, cons(1))
		t2 := tmp()
		bin(LOpLShr, t2, t, inv)
		return t2
	}
	switch op {
	case LOpLShr, LOpAShr:
		loS := tmp()
		t := tmp()
		bin(LOpLShr, t, alo, nm)
		bin(LOpOr, loS, t, shl2(ahi))
		hiS := tmp()
		shOp := LOpLShr
		if op == LOpAShr {
			shOp = LOpAShr
		}
		bin(shOp, hiS, ahi, nm)
		loB := tmp()
		bin(shOp, loB, ahi, nBig)
		sel(dlo, big, loB, loS)
		if op == LOpAShr {
			hiB := tmp()
			bin(LOpAShr, hiB, ahi, cons(63))
			sel(dhi, big, hiB, hiS)
		} else {
			sel(dhi, big, cons(0), hiS)
		}
	default: // shl
		hiS := tmp()
		t := tmp()
		bin(LOpShl, t, ahi, nm)
		bin(LOpOr, hiS, t, shr2(alo))
		loS := tmp()
		bin(LOpShl, loS, alo, nm)
		hiB := tmp()
		bin(LOpShl, hiB, alo, nBig)
		sel(dlo, big, cons(0), loS)
		sel(dhi, big, hiB, hiS)
	}
}

func (g *gISel) legalShiftG(gf *gfunc, emit func(ginst), op Opcode, dlo, dhi, alo, ahi gvr, k uint, cons func(int64) gvr) {
	bin := func(o Opcode, d, a, b gvr) {
		emit(ginst{op: o, ty: TI64, dst: d, dst2: gnone, srcs: [3]gvr{a, b, gnone}, sym: -1})
	}
	mov := func(d, s gvr) {
		z := cons(0)
		bin(LOpOr, d, s, z)
	}
	switch {
	case k == 0:
		mov(dlo, alo)
		mov(dhi, ahi)
	case op == LOpLShr && k == 64:
		mov(dlo, ahi)
		z := cons(0)
		mov(dhi, z)
	case op == LOpAShr && k == 64:
		mov(dlo, ahi)
		c63 := cons(63)
		bin(LOpAShr, dhi, ahi, c63)
	case op == LOpShl && k == 64:
		z := cons(0)
		mov(dlo, z)
		mov(dhi, alo)
	case op == LOpShl && k < 64:
		ck := cons(int64(k))
		cik := cons(int64(64 - k))
		t1 := gf.newGVR(TI64)
		bin(LOpShl, t1, ahi, ck)
		t2 := gf.newGVR(TI64)
		bin(LOpLShr, t2, alo, cik)
		bin(LOpOr, dhi, t1, t2)
		bin(LOpShl, dlo, alo, ck)
	case k < 64:
		ck := cons(int64(k))
		cik := cons(int64(64 - k))
		t1 := gf.newGVR(TI64)
		bin(LOpLShr, t1, alo, ck)
		t2 := gf.newGVR(TI64)
		bin(LOpShl, t2, ahi, cik)
		bin(LOpOr, dlo, t1, t2)
		sh := LOpLShr
		if op == LOpAShr {
			sh = LOpAShr
		}
		bin(sh, dhi, ahi, ck)
	case op == LOpShl:
		ck := cons(int64(k - 64))
		z := cons(0)
		mov(dlo, z)
		bin(LOpShl, dhi, alo, ck)
	case op == LOpLShr:
		ck := cons(int64(k - 64))
		bin(LOpLShr, dlo, ahi, ck)
		z := cons(0)
		mov(dhi, z)
	default:
		ck := cons(int64(k - 64))
		bin(LOpAShr, dlo, ahi, ck)
		c63 := cons(63)
		bin(LOpAShr, dhi, ahi, c63)
	}
}

func (g *gISel) legalCmpG(gf *gfunc, emit func(ginst), gi *ginst, alo, ahi, blo, bhi gvr) {
	cmp := func(p vt.Cond, d, a, b gvr) {
		emit(ginst{op: LOpICmp, ty: TI1, dst: d, dst2: gnone, pred: uint8(p), srcs: [3]gvr{a, b, gnone}, sym: -1})
	}
	bin := func(o Opcode, d, a, b gvr) {
		emit(ginst{op: o, ty: TI64, dst: d, dst2: gnone, srcs: [3]gvr{a, b, gnone}, sym: -1})
	}
	switch c := vt.Cond(gi.pred); c {
	case vt.CondEQ, vt.CondNE:
		t1 := gf.newGVR(TI64)
		bin(LOpXor, t1, alo, blo)
		t2 := gf.newGVR(TI64)
		bin(LOpXor, t2, ahi, bhi)
		t3 := gf.newGVR(TI64)
		bin(LOpOr, t3, t1, t2)
		z := gf.newGVR(TI64)
		emit(ginst{op: LOpConst, ty: TI64, dst: z, dst2: gnone, srcs: [3]gvr{gnone, gnone, gnone}, sym: -1})
		cmp(c, gi.dst, t3, z)
	default:
		strict, uc := splitWideCmp(c)
		t1 := gf.newGVR(TI1)
		cmp(strict, t1, ahi, bhi)
		t2 := gf.newGVR(TI1)
		cmp(vt.CondEQ, t2, ahi, bhi)
		t3 := gf.newGVR(TI1)
		cmp(uc, t3, alo, blo)
		t4 := gf.newGVR(TI1)
		emit(ginst{op: LOpAnd, ty: TI1, dst: t4, dst2: gnone, srcs: [3]gvr{t2, t3, gnone}, sym: -1})
		emit(ginst{op: LOpOr, ty: TI1, dst: gi.dst, dst2: gnone, srcs: [3]gvr{t1, t4, gnone}, sym: -1})
	}
}

// regBankSelect assigns a register bank to every generic vreg (one full
// pass over the IR).
func (g *gISel) regBankSelect(gf *gfunc) {
	for v := range gf.types {
		if gf.types[v].Kind == KDouble {
			gf.banks[v] = vt.FPR
		} else {
			gf.banks[v] = vt.GPR
		}
	}
	// The pass also walks every instruction validating operand banks.
	n := 0
	for bi := range gf.blocks {
		n += len(gf.blocks[bi])
	}
	g.stats.Count("gisel_bankselect_insts", int64(n))
}
