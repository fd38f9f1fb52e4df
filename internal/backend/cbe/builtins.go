package cbe

import "fmt"

// builtinOp expands the compiler builtins.
func (g *asmgen) builtinOp(t *tac) error {
	switch t.bi {
	case biI128:
		lo, hi := g.use(t.args[0]), g.use(t.args[1])
		g.movTo(g.defFrom(t.dst, lo), lo)
		g.movTo(g.defU(2*t.dst+1, hi), hi)

	case biCrc32, biRotr:
		a, b := g.use(t.args[0]), g.use(t.args[1])
		g.op3(map[builtinKind]string{biCrc32: "crc32", biRotr: "rotr"}[t.bi], g.defFrom(t.dst, a), a, b)

	case biLMulFold:
		a, b := g.use(t.args[0]), g.use(t.args[1])
		d, h := g.def(t.dst), g.tmp()
		g.ins("mulw", d, h, a, b)
		g.op3("xor", d, d, h)

	case biZext:
		a := g.use(t.args[0])
		d := g.defFrom(t.dst, a)
		g.movTo(d, a)
		if t.ct2.bits() < 64 {
			g.op3i("andi", d, d, 1<<t.ct2.bits()-1)
		}

	case biF64Bits:
		g.ins("movrf", g.def(t.dst), g.use(t.args[0]))

	case biBitsF64:
		if a := t.args[0]; g.konst[a] {
			g.ins("fmovi", g.def(t.dst), g.kval[a])
		} else {
			g.ins("movfr", g.def(t.dst), g.use(a))
		}

	case biSelect, biFSelect:
		// y ^ ((x ^ y) & -cond), on the bit patterns.
		cond, x, y := g.use(t.args[0]), g.use(t.args[1]), g.use(t.args[2])
		d, m, tx := g.def(t.dst), g.tmp(), g.tmp()
		g.ins("mov", m, cond)
		g.ins("neg", m, m)
		if t.bi == biSelect {
			g.op3("xor", tx, x, y)
			g.op3("and", tx, tx, m)
			g.op3("xor", d, y, tx)
			break
		}
		ty := g.tmp()
		g.ins("movrf", tx, x)
		g.ins("movrf", ty, y)
		g.op3("xor", tx, tx, ty)
		g.op3("and", tx, tx, m)
		g.op3("xor", tx, tx, ty)
		g.ins("movfr", d, tx)

	case biAddTrap, biSubTrap, biMulTrap:
		return g.trapArith(t)

	default:
		return fmt.Errorf("bad builtin %d", t.bi)
	}
	return nil
}

var trapArithName = map[builtinKind]string{biAddTrap: "add", biSubTrap: "sub", biMulTrap: "mul"}

// overflowTrap traps when the sign bits say an addition or subtraction
// overflowed: for d = a + b when d differs in sign from both, for d = a - b
// when a differs from b and d from a.
func (g *asmgen) overflowTrap(sub bool, d, a, b reg) {
	t1, t2 := g.tmp(), g.tmp()
	if sub {
		g.op3("xor", t1, a, b)
		g.op3("xor", t2, d, a)
	} else {
		g.op3("xor", t1, d, a)
		g.op3("xor", t2, d, b)
	}
	g.op3("and", t1, t1, t2)
	g.op3i("shri", t1, t1, 63)
	g.ins("trapnz", t1, int64(1))
}

func (g *asmgen) trapArith(t *tac) error {
	w := t.ct2
	if w == ctI128 {
		if t.bi == biMulTrap {
			return fmt.Errorf("128-bit multiplication should go through the runtime helper")
		}
		alo, ahi, blo, bhi := g.use(t.args[0]), g.useHi(t.args[0]), g.use(t.args[1]), g.useHi(t.args[1])
		dlo, dhi := g.def(t.dst), g.defHi(t.dst)
		g.addSub128(t.bi == biSubTrap, dlo, dhi, alo, ahi, blo, bhi)
		g.overflowTrap(t.bi == biSubTrap, dhi, ahi, bhi)
		return nil
	}
	a, b := g.use(t.args[0]), g.use(t.args[1])
	d := g.def(t.dst)
	switch {
	case w.bits() < 64:
		// Compute in 64 bits; overflow is the result changing when narrowed.
		wide := g.tmp()
		g.op3(trapArithName[t.bi], wide, a, b)
		g.ins("mov", d, wide)
		g.canon(w, d)
		g.ins("set", "ne", wide, wide, d)
		g.ins("trapnz", wide, int64(1))
	case t.bi == biMulTrap:
		// Overflow is a high word that is not the low word's sign.
		h := g.tmp()
		g.ins("mulws", d, h, a, b)
		t2 := g.tmp()
		g.op3i("sari", t2, d, 63)
		g.op3("xor", t2, t2, h)
		g.ins("trapnz", t2, int64(1))
	default:
		g.op3(trapArithName[t.bi], d, a, b)
		g.overflowTrap(t.bi == biSubTrap, d, a, b)
	}
	return nil
}
