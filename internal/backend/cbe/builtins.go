package cbe

import "fmt"

// builtinOp expands the compiler builtins.
func (g *asmgen) builtinOp(t *tac) error {
	switch t.bi {
	case biI128:
		lo := g.use(t.args[0])
		hi := g.use(t.args[1])
		dlo, dhi := g.defPair(t.dst)
		g.ins("mov r%d, r%d", dlo, lo)
		g.ins("mov r%d, r%d", dhi, hi)
		g.defDone(t.dst)

	case biCrc32:
		a := g.use(t.args[0])
		b := g.use(t.args[1])
		d := g.def(t.dst)
		g.mov3("crc32", d, a, b)
		g.defDone(t.dst)

	case biLMulFold:
		a := g.use(t.args[0])
		b := g.use(t.args[1])
		d := g.def(t.dst)
		h := g.allocGPR()
		g.ins("mulw r%d, r%d, r%d, r%d", d, h, a, b)
		g.mov3("xor", d, d, h)
		g.defDone(t.dst)

	case biRotr:
		a := g.use(t.args[0])
		b := g.use(t.args[1])
		d := g.def(t.dst)
		g.mov3("rotr", d, a, b)
		g.defDone(t.dst)

	case biZext:
		a := g.use(t.args[0])
		d := g.def(t.dst)
		g.ins("mov r%d, r%d", d, a)
		switch t.ct2 {
		case ctI1:
			g.mov3i("andi", d, d, 1)
		case ctI8:
			g.mov3i("andi", d, d, 0xFF)
		case ctI16:
			g.mov3i("andi", d, d, 0xFFFF)
		case ctI32:
			g.mov3i("andi", d, d, 0xFFFFFFFF)
		}
		g.defDone(t.dst)

	case biF64Bits:
		a := g.useF(t.args[0])
		d := g.def(t.dst)
		g.ins("movrf r%d, f%d", d, a)
		g.defDone(t.dst)

	case biBitsF64:
		a := g.use(t.args[0])
		d := g.def(t.dst)
		g.ins("movfr f%d, r%d", d, a)
		g.defDone(t.dst)

	case biSelect:
		cond := g.use(t.args[0])
		x := g.use(t.args[1])
		y := g.use(t.args[2])
		d := g.def(t.dst)
		m := g.allocGPR()
		g.ins("mov r%d, r%d", m, cond)
		g.ins("neg r%d, r%d", m, m)
		tt := g.allocGPR()
		g.mov3("xor", tt, x, y)
		g.mov3("and", tt, tt, m)
		g.ins("mov r%d, r%d", d, y)
		g.mov3("xor", d, d, tt)
		g.defDone(t.dst)

	case biFSelect:
		cond := g.use(t.args[0])
		x := g.useF(t.args[1])
		y := g.useF(t.args[2])
		d := g.def(t.dst)
		m := g.allocGPR()
		g.ins("mov r%d, r%d", m, cond)
		g.ins("neg r%d, r%d", m, m)
		tx := g.allocGPR()
		ty := g.allocGPR()
		g.ins("movrf r%d, f%d", tx, x)
		g.ins("movrf r%d, f%d", ty, y)
		g.mov3("xor", tx, tx, ty)
		g.mov3("and", tx, tx, m)
		g.mov3("xor", tx, tx, ty)
		g.ins("movfr f%d, r%d", d, tx)
		g.defDone(t.dst)

	case biAtomicAdd:
		addr := g.use(t.args[0])
		val := g.use(t.args[1])
		d := g.def(t.dst)
		tt := g.allocGPR()
		g.ins("%s r%d, r%d, 0", loadMnemonic(t.ct2), d, addr)
		g.ins("mov r%d, r%d", tt, d)
		g.mov3("add", tt, tt, val)
		g.ins("%s r%d, 0, r%d", storeMnemonic(t.ct2), addr, tt)
		g.defDone(t.dst)

	case biAddTrap, biSubTrap, biMulTrap:
		return g.trapArith(t)

	default:
		return fmt.Errorf("bad builtin %d", t.bi)
	}
	return nil
}

func (g *asmgen) trapArith(t *tac) error {
	w := t.ct2
	if w == ctI128 {
		return g.trapArith128(t)
	}
	a := g.use(t.args[0])
	b := g.use(t.args[1])
	d := g.def(t.dst)
	if w.bits() < 64 {
		op := map[builtinKind]string{biAddTrap: "add", biSubTrap: "sub", biMulTrap: "mul"}[t.bi]
		g.mov3(op, d, a, b)
		tt := g.allocGPR()
		g.ins("mov r%d, r%d", tt, d)
		g.canon(w, tt)
		ov := g.allocGPR()
		g.ins("set ne r%d, r%d, r%d", ov, tt, d)
		g.ins("trapnz r%d, 1", ov)
		g.ins("mov r%d, r%d", d, tt)
		g.defDone(t.dst)
		return nil
	}
	switch t.bi {
	case biAddTrap, biSubTrap:
		op := "add"
		if t.bi == biSubTrap {
			op = "sub"
		}
		g.mov3(op, d, a, b)
		t1 := g.allocGPR()
		t2 := g.allocGPR()
		if t.bi == biAddTrap {
			g.mov3("xor", t1, d, a)
			g.mov3("xor", t2, d, b)
		} else {
			g.mov3("xor", t1, a, b)
			g.mov3("xor", t2, d, a)
		}
		g.mov3("and", t1, t1, t2)
		g.mov3i("shri", t1, t1, 63)
		g.ins("trapnz r%d, 1", t1)
	case biMulTrap:
		h := g.allocGPR()
		g.ins("mulws r%d, r%d, r%d, r%d", d, h, a, b)
		t2 := g.allocGPR()
		g.ins("mov r%d, r%d", t2, d)
		g.mov3i("sari", t2, t2, 63)
		g.mov3("xor", t2, t2, h)
		g.ins("trapnz r%d, 1", t2)
	}
	g.defDone(t.dst)
	return nil
}

func (g *asmgen) trapArith128(t *tac) error {
	if t.bi == biMulTrap {
		return fmt.Errorf("128-bit multiplication should go through the runtime helper")
	}
	alo, ahi := g.usePair(t.args[0])
	blo, bhi := g.usePair(t.args[1])
	dlo, dhi := g.defPair(t.dst)
	c := g.allocGPR()
	t1 := g.allocGPR()
	t2 := g.allocGPR()
	if t.bi == biAddTrap {
		g.mov3("add", dlo, alo, blo)
		g.ins("set ult r%d, r%d, r%d", c, dlo, alo)
		g.mov3("add", dhi, ahi, bhi)
		g.mov3("add", dhi, dhi, c)
		g.mov3("xor", t1, dhi, ahi)
		g.mov3("xor", t2, dhi, bhi)
	} else {
		g.ins("set ult r%d, r%d, r%d", c, alo, blo)
		g.mov3("sub", dlo, alo, blo)
		g.mov3("sub", dhi, ahi, bhi)
		g.mov3("sub", dhi, dhi, c)
		g.mov3("xor", t1, ahi, bhi)
		g.mov3("xor", t2, dhi, ahi)
	}
	g.mov3("and", t1, t1, t2)
	g.mov3i("shri", t1, t1, 63)
	g.ins("trapnz r%d, 1", t1)
	g.defDone(t.dst)
	return nil
}
