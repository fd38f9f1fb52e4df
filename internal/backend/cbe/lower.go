package cbe

import "fmt"

// inst lowers one TAC instruction to assembly text.
func (g *asmgen) inst(t *tac) error {
	sp := g.tgt.SP
	switch t.op {
	case gLabel:
		g.clearCaches()
		fmt.Fprintf(g.sb, ".L%d:\n", t.label)
	case gGoto:
		g.clearCaches()
		g.ins("br .L%d", t.label)
	case gIfGoto:
		a := g.use(t.a)
		g.unpin()
		g.clearCaches()
		g.ins("brnz r%d, .L%d", a, t.label)
	case gRet:
		if t.a >= 0 {
			switch g.gf.vars[t.a] {
			case ctI128:
				lo, hi := g.usePair(t.a)
				r0, r1 := int16(g.tgt.IntRet[0]), int16(g.tgt.IntRet[1])
				if hi == r0 {
					tmp := g.allocGPR()
					g.ins("mov r%d, r%d", tmp, hi)
					hi = tmp
				}
				if lo != r0 {
					g.ins("mov r%d, r%d", r0, lo)
				}
				if hi != r1 {
					g.ins("mov r%d, r%d", r1, hi)
				}
			case ctF64:
				f := g.useF(t.a)
				g.ins("movrf r%d, f%d", g.tgt.IntRet[0], f)
			default:
				a := g.use(t.a)
				if a != int16(g.tgt.IntRet[0]) {
					g.ins("mov r%d, r%d", g.tgt.IntRet[0], a)
				}
			}
		}
		for i, r := range g.tgt.CalleeSaved {
			g.ins("ld64 r%d, r%d, %d", r, sp, int64(i)*8)
		}
		g.ins("addi r%d, r%d, %d", sp, sp, g.frame)
		g.ins("ret")
		g.unpin()
		g.clearCaches()
	case gTrap:
		g.ins("trap 0")
		g.clearCaches()

	case gConst:
		if t.ct == ctI128 {
			lo, hi := g.defPair(t.dst)
			g.ins("movi r%d, %d", lo, t.imm)
			g.ins("movi r%d, %d", hi, t.imm>>63)
			g.defDone(t.dst)
			return nil
		}
		d := g.def(t.dst)
		g.ins("movi r%d, %d", d, t.imm)
		g.defDone(t.dst)

	case gMov:
		switch g.gf.vars[t.dst] {
		case ctI128:
			if g.gf.vars[t.a] == ctI128 {
				alo, ahi := g.usePair(t.a)
				dlo, dhi := g.defPair(t.dst)
				g.ins("mov r%d, r%d", dlo, alo)
				g.ins("mov r%d, r%d", dhi, ahi)
			} else {
				a := g.use(t.a)
				dlo, dhi := g.defPair(t.dst)
				g.ins("mov r%d, r%d", dlo, a)
				g.ins("mov r%d, r%d", dhi, a)
				g.mov3i("sari", dhi, dhi, 63)
			}
		case ctF64:
			a := g.useF(t.a)
			d := g.def(t.dst)
			g.ins("fmov f%d, f%d", d, a)
		default:
			if g.gf.vars[t.a] == ctI128 {
				alo, _ := g.usePair(t.a)
				d := g.def(t.dst)
				g.ins("mov r%d, r%d", d, alo)
				g.canon(g.gf.vars[t.dst], d)
			} else {
				a := g.use(t.a)
				d := g.def(t.dst)
				g.ins("mov r%d, r%d", d, a)
				g.canon(g.gf.vars[t.dst], d)
			}
		}
		g.defDone(t.dst)

	case gBin:
		return g.binOp(t)
	case gCmp:
		return g.cmpOp(t)
	case gCast:
		return g.castOp(t)
	case gLoad:
		addr := g.use(t.a)
		if t.ct == ctI128 {
			dlo, dhi := g.defPair(t.dst)
			g.ins("%s r%d, r%d, 0", uqMnem("ld64", t.unchecked), dlo, addr)
			g.ins("%s r%d, r%d, 8", uqMnem("ld64", t.unchecked), dhi, addr)
		} else if t.ct == ctF64 {
			d := g.def(t.dst)
			g.ins("%s f%d, r%d, 0", uqMnem("fld", t.unchecked), d, addr)
		} else {
			d := g.def(t.dst)
			g.ins("%s r%d, r%d, 0", uqMnem(loadMnemonic(t.ct), t.unchecked), d, addr)
			if t.ct == ctI1 {
				g.mov3i("andi", d, d, 1)
			}
		}
		g.defDone(t.dst)
	case gStore:
		addr := g.use(t.a)
		switch t.ct {
		case ctI128:
			lo, hi := g.usePair(t.b)
			g.ins("%s r%d, 0, r%d", uqMnem("st64", t.unchecked), addr, lo)
			g.ins("%s r%d, 8, r%d", uqMnem("st64", t.unchecked), addr, hi)
		case ctF64:
			f := g.useF(t.b)
			g.ins("%s r%d, 0, f%d", uqMnem("fst", t.unchecked), addr, f)
		default:
			v := g.use(t.b)
			g.ins("%s r%d, 0, r%d", uqMnem(storeMnemonic(t.ct), t.unchecked), addr, v)
		}
		g.unpin()
	case gAddrOf:
		d := g.def(t.dst)
		g.ins("movsym r%d, %s", d, t.sym)
		g.defDone(t.dst)
	case gCall:
		return g.callOp(t)
	case gBuiltin:
		return g.builtinOp(t)
	default:
		return fmt.Errorf("bad TAC op %d", t.op)
	}
	return nil
}

func loadMnemonic(t cType) string {
	switch t {
	case ctI1:
		return "ld8"
	case ctI8:
		return "ld8s"
	case ctI16:
		return "ld16s"
	case ctI32:
		return "ld32s"
	}
	return "ld64"
}

// uqMnem rewrites a memory mnemonic to its unchecked form ("ld64" ->
// "ldu64", "st8" -> "stu8", "fld" -> "fldu"), matching the vt op names.
func uqMnem(m string, unchecked bool) string {
	if !unchecked {
		return m
	}
	switch m {
	case "fld":
		return "fldu"
	case "fst":
		return "fstu"
	}
	// ldNN[s] / stNN -> lduNN[s] / stuNN.
	return m[:2] + "u" + m[2:]
}

func storeMnemonic(t cType) string {
	switch t {
	case ctI1, ctI8:
		return "st8"
	case ctI16:
		return "st16"
	case ctI32:
		return "st32"
	}
	return "st64"
}

func (g *asmgen) binOp(t *tac) error {
	if t.ct == ctF64 {
		a := g.useF(t.a)
		b := g.useF(t.b)
		d := g.def(t.dst)
		op := map[gBinKind]string{bAdd: "fadd", bSub: "fsub", bMul: "fmul", bDiv: "fdiv"}[t.bin]
		if op == "" {
			return fmt.Errorf("bad float op")
		}
		if g.tgt.TwoAddress && d != a {
			if d == b {
				f := g.allocFPR()
				g.ins("fmov f%d, f%d", f, b)
				b = f
			}
			g.ins("fmov f%d, f%d", d, a)
			a = d
		}
		g.ins("%s f%d, f%d, f%d", op, d, a, b)
		g.defDone(t.dst)
		return nil
	}
	if t.ct == ctI128 {
		return g.bin128(t)
	}
	a := g.use(t.a)
	b := g.use(t.b)
	if t.bin == bShr {
		// Logical shift: source was cast to u64 (no-op at register
		// level); plain shr works on the canonical value.
		d := g.def(t.dst)
		g.mov3("shr", d, a, b)
		g.defDone(t.dst)
		return nil
	}
	d := g.def(t.dst)
	g.mov3(gBinName[t.bin], d, a, b)
	if t.ct != ctI64 && t.ct != ctU64 && t.ct != ctPtr {
		switch t.bin {
		case bAnd, bOr, bXor, bSar, bDiv, bRem:
		default:
			g.canon(t.ct, d)
		}
	}
	g.defDone(t.dst)
	return nil
}

func (g *asmgen) bin128(t *tac) error {
	alo, ahi := g.usePair(t.a)
	switch t.bin {
	case bAdd, bSub:
		blo, bhi := g.usePair(t.b)
		dlo, dhi := g.defPair(t.dst)
		c := g.allocGPR()
		if t.bin == bAdd {
			g.mov3("add", dlo, alo, blo)
			g.ins("set ult r%d, r%d, r%d", c, dlo, alo)
			g.mov3("add", dhi, ahi, bhi)
			g.mov3("add", dhi, dhi, c)
		} else {
			g.ins("set ult r%d, r%d, r%d", c, alo, blo)
			g.mov3("sub", dlo, alo, blo)
			g.mov3("sub", dhi, ahi, bhi)
			g.mov3("sub", dhi, dhi, c)
		}
	case bMul:
		blo, bhi := g.usePair(t.b)
		dlo, dhi := g.defPair(t.dst)
		tt := g.allocGPR()
		g.ins("mulw r%d, r%d, r%d, r%d", dlo, dhi, alo, blo)
		g.mov3("mul", tt, alo, bhi)
		g.mov3("add", dhi, dhi, tt)
		g.mov3("mul", tt, ahi, blo)
		g.mov3("add", dhi, dhi, tt)
	case bAnd, bOr, bXor:
		blo, bhi := g.usePair(t.b)
		dlo, dhi := g.defPair(t.dst)
		g.mov3(gBinName[t.bin], dlo, alo, blo)
		g.mov3(gBinName[t.bin], dhi, ahi, bhi)
	case bShr, bSar, bShl:
		// Only constant shifts appear (generated code shifts by 64).
		kv, ok := g.constOf(t.b)
		if !ok {
			return fmt.Errorf("dynamic 128-bit shift in C back-end")
		}
		k := uint(kv) & 127
		dlo, dhi := g.defPair(t.dst)
		g.shift128(t.bin, dlo, dhi, alo, ahi, k)
	default:
		return fmt.Errorf("128-bit op %d unsupported", t.bin)
	}
	g.defDone(t.dst)
	return nil
}

// constOf scans backwards for the constant defining var v (single-def
// constants only).
func (g *asmgen) constOf(v int32) (int64, bool) {
	var val int64
	found := 0
	for i := range g.gf.code {
		t := &g.gf.code[i]
		if t.dst == v {
			if t.op != gConst {
				return 0, false
			}
			val = t.imm
			found++
		}
	}
	return val, found == 1
}

func (g *asmgen) shift128(k gBinKind, dlo, dhi, alo, ahi int16, n uint) {
	switch {
	case n == 0:
		g.ins("mov r%d, r%d", dlo, alo)
		g.ins("mov r%d, r%d", dhi, ahi)
	case k == bShr && n == 64:
		g.ins("mov r%d, r%d", dlo, ahi)
		g.ins("movi r%d, 0", dhi)
	case k == bSar && n == 64:
		g.ins("mov r%d, r%d", dlo, ahi)
		g.ins("mov r%d, r%d", dhi, ahi)
		g.mov3i("sari", dhi, dhi, 63)
	case k == bShl && n == 64:
		g.ins("mov r%d, r%d", dhi, alo)
		g.ins("movi r%d, 0", dlo)
	case k == bShl && n < 64:
		t := g.allocGPR()
		g.ins("mov r%d, r%d", t, alo)
		g.mov3i("shri", t, t, int64(64-n))
		g.mov3i("shli", dhi, ahi, int64(n))
		g.mov3("or", dhi, dhi, t)
		g.mov3i("shli", dlo, alo, int64(n))
	case n < 64:
		t := g.allocGPR()
		g.ins("mov r%d, r%d", t, ahi)
		g.mov3i("shli", t, t, int64(64-n))
		g.mov3i("shri", dlo, alo, int64(n))
		g.mov3("or", dlo, dlo, t)
		if k == bSar {
			g.mov3i("sari", dhi, ahi, int64(n))
		} else {
			g.mov3i("shri", dhi, ahi, int64(n))
		}
	case k == bShl:
		g.mov3i("shli", dhi, alo, int64(n-64))
		g.ins("movi r%d, 0", dlo)
	case k == bShr:
		g.mov3i("shri", dlo, ahi, int64(n-64))
		g.ins("movi r%d, 0", dhi)
	default:
		g.mov3i("sari", dlo, ahi, int64(n-64))
		g.mov3i("sari", dhi, ahi, 63)
	}
}

func (g *asmgen) cmpOp(t *tac) error {
	if g.gf.vars[t.a] == ctF64 {
		a := g.useF(t.a)
		b := g.useF(t.b)
		d := g.def(t.dst)
		g.ins("fcmp %s r%d, f%d, f%d", predName[t.pred].s, d, a, b)
		g.defDone(t.dst)
		return nil
	}
	if g.gf.vars[t.a] == ctI128 {
		return g.cmp128(t)
	}
	a := g.use(t.a)
	b := g.use(t.b)
	d := g.def(t.dst)
	p := predName[t.pred].s
	if t.unsig {
		p = predName[t.pred].u
	}
	g.ins("set %s r%d, r%d, r%d", p, d, a, b)
	g.defDone(t.dst)
	return nil
}

func (g *asmgen) cmp128(t *tac) error {
	alo, ahi := g.usePair(t.a)
	blo, bhi := g.usePair(t.b)
	d := g.def(t.dst)
	switch t.pred {
	case "eq", "ne":
		t1 := g.allocGPR()
		t2 := g.allocGPR()
		g.mov3("xor", t1, alo, blo)
		g.mov3("xor", t2, ahi, bhi)
		g.mov3("or", t1, t1, t2)
		g.ins("movi r%d, 0", t2)
		g.ins("set %s r%d, r%d, r%d", t.pred, d, t1, t2)
	default:
		strict := map[string]string{"lt": "slt", "le": "slt", "gt": "sgt", "ge": "sgt"}[t.pred]
		low := map[string]string{"lt": "ult", "le": "ule", "gt": "ugt", "ge": "uge"}[t.pred]
		t1 := g.allocGPR()
		t2 := g.allocGPR()
		t3 := g.allocGPR()
		g.ins("set %s r%d, r%d, r%d", strict, t1, ahi, bhi)
		g.ins("set eq r%d, r%d, r%d", t2, ahi, bhi)
		g.ins("set %s r%d, r%d, r%d", low, t3, alo, blo)
		g.mov3("and", t2, t2, t3)
		g.ins("mov r%d, r%d", d, t1)
		g.mov3("or", d, d, t2)
	}
	g.defDone(t.dst)
	return nil
}

func (g *asmgen) castOp(t *tac) error {
	from, to := t.ct2, t.ct
	switch {
	case to == ctI128 && from != ctI128:
		if from == ctF64 {
			return fmt.Errorf("f64 to i128 cast unsupported")
		}
		a := g.use(t.a)
		dlo, dhi := g.defPair(t.dst)
		g.ins("mov r%d, r%d", dlo, a)
		g.ins("mov r%d, r%d", dhi, a)
		g.mov3i("sari", dhi, dhi, 63)
	case from == ctI128 && to != ctI128:
		alo, _ := g.usePair(t.a)
		d := g.def(t.dst)
		g.ins("mov r%d, r%d", d, alo)
		g.canon(to, d)
	case to == ctF64 && from != ctF64:
		a := g.use(t.a)
		d := g.def(t.dst)
		g.ins("si2f f%d, r%d", d, a)
	case from == ctF64 && to != ctF64:
		a := g.useF(t.a)
		d := g.def(t.dst)
		g.ins("f2si r%d, f%d", d, a)
		g.canon(to, d)
	default:
		// Integer-to-integer: canonicalize to the target width.
		a := g.use(t.a)
		d := g.def(t.dst)
		g.ins("mov r%d, r%d", d, a)
		if to != ctU64 && to != ctPtr && to.bits() < from.bits() || to.bits() < 64 && from == ctU64 {
			g.canon(to, d)
		} else if to.bits() < 64 && from.bits() > to.bits() {
			g.canon(to, d)
		}
	}
	g.defDone(t.dst)
	return nil
}

func (g *asmgen) callOp(t *tac) error {
	// Stage arguments (write-through policy makes slots authoritative, so
	// caches can simply be dropped afterwards).
	reg := 0
	sp := g.tgt.SP
	stage := func(slotOff int64) error {
		if reg >= len(g.tgt.IntArgs) {
			return fmt.Errorf("too many call arguments")
		}
		g.ins("ld64 r%d, r%d, %d", g.tgt.IntArgs[reg], sp, slotOff)
		reg++
		return nil
	}
	// Drop caches first so argument registers are free.
	g.unpin()
	g.clearCaches()
	for _, a := range t.args {
		switch g.gf.vars[a] {
		case ctI128:
			if err := stage(g.slot[a]); err != nil {
				return err
			}
			if err := stage(g.slot[a] + 8); err != nil {
				return err
			}
		case ctF64:
			if err := stage(g.slot[a]); err != nil {
				return err
			}
		default:
			if err := stage(g.slot[a]); err != nil {
				return err
			}
		}
	}
	g.ins("callrt %d", t.rtid)
	g.clearCaches()
	if t.dst >= 0 {
		dlo, dhi := g.defPair(t.dst)
		r0, r1 := int16(g.tgt.IntRet[0]), int16(g.tgt.IntRet[1])
		if dlo == r1 {
			g.ins("mov r%d, r%d", dhi, r1)
			g.ins("mov r%d, r%d", dlo, r0)
		} else {
			if dlo != r0 {
				g.ins("mov r%d, r%d", dlo, r0)
			}
			if dhi != r1 {
				g.ins("mov r%d, r%d", dhi, r1)
			}
		}
		g.defDone(t.dst)
	}
	return nil
}
