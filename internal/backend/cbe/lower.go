package cbe

import (
	"fmt"
	"math/bits"
	"strconv"
)

// inst lowers one TAC instruction to assembly text.
func (g *asmgen) inst(t *tac) error {
	switch t.op {
	case gLabel:
		if g.reachable {
			g.flush(t.label)
		}
		g.forget(^uint64(0))
		g.sb.WriteString(".L" + strconv.Itoa(int(t.label)) + ":\n")
		g.reachable, g.end = true, g.regionEnd(g.pos+1)
	case gGoto:
		g.flush(t.label)
		g.ins("br", label(t.label))
		g.reachable = false
	case gIfGoto:
		g.branch(t)
	case gRet:
		if t.a >= 0 {
			r0, r1 := reg(g.tgt.IntRet[0]), reg(g.tgt.IntRet[1])
			switch g.gf.vars[t.a] {
			case ctI128:
				g.parMove([]reg{r0, r1}, []reg{g.use(t.a), g.useHi(t.a)})
			case ctF64:
				g.ins("movrf", r0, g.use(t.a))
			default:
				g.parMove([]reg{r0}, []reg{g.use(t.a)})
			}
		}
		g.rets = append(g.rets, g.sb.Len())
		g.reachable = false
	case gTrap:
		g.ins("trap", int64(0))
		g.reachable = false

	case gConst:
		switch {
		case g.konst[t.dst]: // materialized where it is used
		case t.ct == ctI128:
			g.ins("movi", g.def(t.dst), t.imm)
			g.ins("movi", g.defHi(t.dst), t.imm>>63)
		default:
			g.ins("movi", g.def(t.dst), t.imm)
		}
	case gMov:
		return g.castOp(t, g.gf.vars[t.a], g.gf.vars[t.dst])
	case gCast:
		return g.castOp(t, t.ct2, t.ct)
	case gBin:
		return g.binOp(t)
	case gCmp:
		g.cmpOp(t)
	case gLoad:
		addr, ld := g.use(t.a), memOp(t.ct, 0, t.unchecked)
		if t.ct == ctI128 {
			g.ins(ld, g.def(t.dst), addr, t.imm)
			g.ins(ld, g.defU(2*t.dst+1, addr), addr, t.imm+8)
			break
		}
		d := g.defFrom(t.dst, addr)
		g.ins(ld, d, addr, t.imm)
		if t.ct == ctI1 {
			g.op3i("andi", d, d, 1)
		}
	case gStore:
		addr, st := g.use(t.a), memOp(t.ct, 1, t.unchecked)
		g.ins(st, addr, t.imm, g.use(t.b))
		if t.ct == ctI128 {
			g.ins(st, addr, t.imm+8, g.useHi(t.b))
		}
	case gAddrOf:
		g.ins("movsym", g.def(t.dst), t.sym)
	case gCall:
		return g.callOp(t)
	case gBuiltin:
		return g.builtinOp(t)
	default:
		return fmt.Errorf("bad TAC op %d", t.op)
	}
	return nil
}

// memMnem gives the load and store mnemonics of a memory type; loads of the
// narrow signed types extend.
var memMnem = map[cType][2]string{
	ctI1: {"ld8", "st8"}, ctI8: {"ld8s", "st8"}, ctI16: {"ld16s", "st16"},
	ctI32: {"ld32s", "st32"}, ctF64: {"fld", "fst"},
}

// memOp returns the mnemonic of a load (store = 0) or store (1) of type t,
// in its unchecked form ("ldu64", "stu8", "fldu") when the access's check was
// discharged statically, matching the vt op names.
func memOp(t cType, store int, unchecked bool) string {
	m, ok := memMnem[t]
	if !ok {
		m = [2]string{"ld64", "st64"}
	}
	if !unchecked {
		return m[store]
	}
	if t == ctF64 {
		return m[store] + "u"
	}
	return m[store][:2] + "u" + m[store][2:]
}

// movTo copies src into d with the move of d's register file.
func (g *asmgen) movTo(d, src reg) {
	switch {
	case d == src:
	case d >= fpr0:
		g.ins("fmov", d, src)
	default:
		g.ins("mov", d, src)
	}
}

// op3 emits d = a op b, honouring the two-address constraint.
func (g *asmgen) op3(op string, d, a, b reg) {
	if g.tgt.TwoAddress && d != a {
		switch {
		case d != b:
			g.movTo(d, a)
		case asmOps[op].Info().Commutes:
			b = a
		default:
			t := g.alloc(d >= fpr0)
			g.movTo(t, b)
			g.movTo(d, a)
			b = t
		}
		a = d
	}
	g.ins(op, d, a, b)
}

// op3i emits d = a op imm; on a two-address target an addition to another
// register is a lea.
func (g *asmgen) op3i(op string, d, a reg, imm int64) {
	if g.tgt.TwoAddress && d != a {
		if op == "addi" {
			op = "lea"
		} else {
			g.ins("mov", d, a)
			a = d
		}
	}
	g.ins(op, d, a, imm)
}

// canon restores the sign-extended register image of a narrow type.
func (g *asmgen) canon(t cType, r reg) {
	switch t {
	case ctI1:
		g.op3i("andi", r, r, 1)
	case ctI8, ctI16, ctI32:
		g.op3i("shli", r, r, int64(64-t.bits()))
		g.op3i("sari", r, r, int64(64-t.bits()))
	}
}

var gBinName = [...]string{
	bAdd: "add", bSub: "sub", bMul: "mul", bDiv: "sdiv", bRem: "srem",
	bUDiv: "udiv", bURem: "urem", bAnd: "and", bOr: "or", bXor: "xor",
	bShl: "shl", bShr: "shr", bSar: "sar",
}

// condName returns the machine condition of a compare: the predicate, with
// its signedness unless it tests equality.
func condName(t *tac) string {
	switch {
	case t.pred == "eq" || t.pred == "ne":
		return t.pred
	case t.unsig:
		return "u" + t.pred
	}
	return "s" + t.pred
}

// branch lowers a conditional branch, on a flag or on a folded compare. The
// flush comes first: next no longer counts the branch itself as a reader, so
// loading an operand could drop a value only the target still needs.
func (g *asmgen) branch(t *tac) {
	g.flush(t.label)
	a, l := g.use(t.a), label(t.label)
	if t.pred == "" || t.pred == "ne" && g.konst[t.b] && g.kval[t.b] == 0 {
		g.ins("brnz", a, l)
	} else {
		g.ins("brcc", condName(t), a, g.use(t.b), l)
	}
}

func (g *asmgen) binOp(t *tac) error {
	switch t.ct {
	case ctF64:
		if t.bin > bDiv {
			return fmt.Errorf("bad float op")
		}
		a, b := g.use(t.a), g.use(t.b)
		g.op3([...]string{bAdd: "fadd", bSub: "fsub", bMul: "fmul", bDiv: "fdiv"}[t.bin], g.defFrom(t.dst, a), a, b)
		return nil
	case ctI128:
		return g.bin128(t)
	}
	if t.b >= 0 && asmOps[gBinName[t.bin]].Info().Commutes && !g.dies(t.a) && g.dies(t.b) {
		t.a, t.b = t.b, t.a
	}
	a := g.use(t.a)
	var d reg
	if t.b < 0 {
		d = g.defFrom(t.dst, a)
		g.op3i(gBinName[t.bin]+"i", d, a, t.imm)
	} else {
		b := g.use(t.b)
		d = g.defFrom(t.dst, a)
		g.op3(gBinName[t.bin], d, a, b)
	}
	if t.ct.bits() < 64 {
		switch t.bin {
		case bAnd, bOr, bXor, bSar, bRem:
		default:
			g.canon(t.ct, d)
		}
	}
	return nil
}

// addSub128 emits the carry or borrow chain of a 128-bit addition or
// subtraction; the results never share a register with an operand.
func (g *asmgen) addSub128(sub bool, dlo, dhi, alo, ahi, blo, bhi reg) {
	c := g.tmp()
	if sub {
		g.ins("set", "ult", c, alo, blo)
		g.op3("sub", dlo, alo, blo)
		g.op3("sub", dhi, ahi, bhi)
		g.op3("sub", dhi, dhi, c)
	} else {
		g.op3("add", dlo, alo, blo)
		g.ins("set", "ult", c, dlo, alo)
		g.op3("add", dhi, ahi, bhi)
		g.op3("add", dhi, dhi, c)
	}
}

func (g *asmgen) bin128(t *tac) error {
	alo, ahi := g.use(t.a), g.useHi(t.a)
	if t.b < 0 {
		if t.bin != bShl && t.bin != bShr && t.bin != bSar {
			return fmt.Errorf("128-bit op %d with an immediate", t.bin)
		}
		g.shift128(t.bin, g.def(t.dst), g.defHi(t.dst), alo, ahi, uint(t.imm)&127)
		return nil
	}
	blo, bhi := g.use(t.b), g.useHi(t.b)
	switch t.bin {
	case bAdd, bSub:
		g.addSub128(t.bin == bSub, g.def(t.dst), g.defHi(t.dst), alo, ahi, blo, bhi)
	case bMul:
		dlo, dhi, tt := g.def(t.dst), g.defHi(t.dst), g.tmp()
		g.ins("mulw", dlo, dhi, alo, blo)
		g.op3("mul", tt, alo, bhi)
		g.op3("add", dhi, dhi, tt)
		g.op3("mul", tt, ahi, blo)
		g.op3("add", dhi, dhi, tt)
	case bAnd, bOr, bXor:
		g.op3(gBinName[t.bin], g.defFrom(t.dst, alo), alo, blo)
		g.op3(gBinName[t.bin], g.defU(2*t.dst+1, ahi), ahi, bhi)
	case bShr, bSar, bShl:
		return fmt.Errorf("dynamic 128-bit shift in C back-end")
	default:
		return fmt.Errorf("128-bit op %d unsupported", t.bin)
	}
	return nil
}

// shift128 shifts the pair (alo, ahi) by the constant n into (dlo, dhi),
// which share no register with it.
func (g *asmgen) shift128(k gBinKind, dlo, dhi, alo, ahi reg, n uint) {
	fill := func() { // the high word of a shift by 64 or more
		if k == bSar {
			g.op3i("sari", dhi, ahi, 63)
		} else {
			g.ins("movi", dhi, int64(0))
		}
	}
	switch {
	case n == 0:
		g.ins("mov", dlo, alo)
		g.ins("mov", dhi, ahi)
	case k == bShl && n >= 64:
		g.op3i("shli", dhi, alo, int64(n-64))
		g.ins("movi", dlo, int64(0))
	case k == bShl:
		t := g.tmp()
		g.op3i("shri", t, alo, int64(64-n))
		g.op3i("shli", dhi, ahi, int64(n))
		g.op3("or", dhi, dhi, t)
		g.op3i("shli", dlo, alo, int64(n))
	case n == 64:
		g.ins("mov", dlo, ahi)
		fill()
	case n > 64:
		g.op3i(gBinName[k]+"i", dlo, ahi, int64(n-64))
		fill()
	default:
		t := g.tmp()
		g.op3i("shli", t, ahi, int64(64-n))
		g.op3i("shri", dlo, alo, int64(n))
		g.op3("or", dlo, dlo, t)
		g.op3i(gBinName[k]+"i", dhi, ahi, int64(n))
	}
}

func (g *asmgen) cmpOp(t *tac) {
	switch g.gf.vars[t.a] {
	case ctF64:
		a, b := g.use(t.a), g.use(t.b)
		g.ins("fcmp", condName(t), g.def(t.dst), a, b)
	case ctI128:
		g.cmp128(t)
	default:
		a, b := g.use(t.a), g.use(t.b)
		g.ins("set", condName(t), g.defFrom(t.dst, a), a, b)
	}
}

func (g *asmgen) cmp128(t *tac) {
	alo, ahi, blo, bhi := g.use(t.a), g.useHi(t.a), g.use(t.b), g.useHi(t.b)
	d, t1 := g.def(t.dst), g.tmp()
	switch t.pred {
	case "eq", "ne":
		g.op3("xor", t1, alo, blo)
		g.op3("xor", d, ahi, bhi)
		g.op3("or", t1, t1, d)
		g.ins("movi", d, int64(0))
		g.ins("set", t.pred, d, t1, d)
	default:
		// Decided by the high words, or by the low ones when those are equal.
		t2 := g.tmp()
		g.ins("set", "s"+t.pred[:1]+"t", d, ahi, bhi)
		g.ins("set", "eq", t1, ahi, bhi)
		g.ins("set", "u"+t.pred, t2, alo, blo)
		g.op3("and", t1, t1, t2)
		g.op3("or", d, d, t1)
	}
}

// castOp converts t.a from type from to type to into t.dst; a move is the
// conversion between a variable's type and another's.
func (g *asmgen) castOp(t *tac, from, to cType) error {
	switch {
	case to == ctI128 && from == ctF64:
		return fmt.Errorf("f64 to i128 cast unsupported")
	case to == ctI128 && from == ctI128:
		alo, ahi := g.use(t.a), g.useHi(t.a)
		g.movTo(g.defFrom(t.dst, alo), alo)
		g.movTo(g.defU(2*t.dst+1, ahi), ahi)
	case to == ctI128:
		a := g.use(t.a)
		dlo := g.defFrom(t.dst, a)
		g.movTo(dlo, a)
		g.op3i("sari", g.defHi(t.dst), dlo, 63)
	case to == ctF64 && from == ctF64:
		a := g.use(t.a)
		g.movTo(g.defFrom(t.dst, a), a)
	case to == ctF64:
		g.ins("si2f", g.def(t.dst), g.use(t.a))
	case from == ctF64:
		d := g.def(t.dst)
		g.ins("f2si", d, g.use(t.a))
		g.canon(to, d)
	default:
		a := g.use(t.a) // the low word, if from is i128
		d := g.defFrom(t.dst, a)
		g.movTo(d, a)
		if to.bits() < from.bits() {
			g.canon(to, d)
		}
	}
	return nil
}

func (g *asmgen) callOp(t *tac) error {
	// Arguments already in registers move in parallel; the rest are loaded
	// or materialized into their argument registers afterwards.
	var dst, src []reg
	type late struct {
		to reg
		u  int32
	}
	var lates []late
	n := 0
	for _, a := range t.args {
		for h := int32(0); h < g.halves(a); h++ {
			if n >= len(g.tgt.IntArgs) {
				return fmt.Errorf("too many call arguments")
			}
			to, u := reg(g.tgt.IntArgs[n]), 2*a+h
			n++
			if r := g.loc[u]; r != noR && r < fpr0 {
				dst, src = append(dst, to), append(src, r)
			} else {
				lates = append(lates, late{to, u})
			}
		}
	}
	// A call clobbers the caller-saved registers: store what is needed
	// after it, before the argument moves overwrite anything.
	clobbered := uint64(1<<numRegs - 1<<fpr0) // every float register
	for _, r := range g.tgt.CallerSaved {
		clobbered |= 1 << r
	}
	for m := g.dirty & clobbered; m != 0; m &= m - 1 {
		r := reg(bits.TrailingZeros64(m))
		if g.next(g.held[r]>>1) >= 0 {
			g.store(r)
		}
	}
	g.parMove(dst, src)
	sp := reg(g.tgt.SP)
	for _, l := range lates {
		v := l.u >> 1
		switch r := g.loc[l.u]; {
		case r != noR:
			g.ins("movrf", l.to, r)
		case g.konst[v]:
			g.ins("movi", l.to, g.kval[v])
		default:
			g.ins("ld64", l.to, sp, g.slotOf(v)+int64(l.u&1)*8)
		}
	}
	g.ins("callrt", int64(t.rtid))
	g.forget(clobbered)
	if t.dst >= 0 && g.next(t.dst) >= 0 {
		for h, r := range g.tgt.IntRet[:2] {
			if d := g.defU(2*t.dst+int32(h), reg(r)); d != reg(r) {
				g.ins("mov", d, reg(r))
			}
		}
	}
	return nil
}
