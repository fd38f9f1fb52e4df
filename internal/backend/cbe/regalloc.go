package cbe

import (
	"fmt"
	"strings"

	"qcc/internal/vt"
)

// asmgen lowers optimized TAC to textual assembly. Every variable has a
// stack slot; values are cached in registers within basic blocks and
// definitions write through to their slots. The textual output is then fed
// to the assembler — the separate process step of the GCC flow.
type asmgen struct {
	gf  *gimpleFunc
	tgt *vt.Target
	sb  *strings.Builder

	slot  []int64
	frame int64

	// Register caches (variable id per register; -1 free).
	gpr  []int32
	fpr  []int32
	loc  []regPair // per var
	pins uint32
	fpin uint32
}

type regPair struct{ r1, r2 int16 }

const noR = int16(-1)

// genAsm prints one function.
func genAsm(gf *gimpleFunc, tgt *vt.Target, sb *strings.Builder) error {
	g := &asmgen{gf: gf, tgt: tgt, sb: sb}
	g.gpr = make([]int32, tgt.NumGPR)
	g.fpr = make([]int32, tgt.NumFPR)
	g.loc = make([]regPair, len(gf.vars))
	for i := range g.loc {
		g.loc[i] = regPair{noR, noR}
	}
	g.clearCaches()

	// Frame layout.
	off := int64(len(tgt.CalleeSaved)) * 8 // callee-save area first
	g.slot = make([]int64, len(gf.vars))
	for v := range gf.vars {
		g.slot[v] = off
		if gf.vars[v] == ctI128 {
			off += 16
		} else {
			off += 8
		}
	}
	g.frame = (off + 15) &^ 15

	fmt.Fprintf(sb, ".func %s\n", gf.name)
	g.ins("subi r%d, r%d, %d", tgt.SP, tgt.SP, g.frame)
	for i, r := range tgt.CalleeSaved {
		g.ins("st64 r%d, %d, r%d", tgt.SP, int64(i)*8, r)
	}
	// Parameters arrive in argument registers; store to slots.
	reg := 0
	for p := 0; p < gf.nparams; p++ {
		g.ins("st64 r%d, %d, r%d", tgt.SP, g.slot[p], tgt.IntArgs[reg])
		reg++
		if gf.vars[p] == ctI128 {
			g.ins("st64 r%d, %d, r%d", tgt.SP, g.slot[p]+8, tgt.IntArgs[reg])
			reg++
		}
	}

	for i := range gf.code {
		if err := g.inst(&gf.code[i]); err != nil {
			return fmt.Errorf("cbe: %s: %w", gf.name, err)
		}
	}
	sb.WriteString(".endfunc\n")
	return nil
}

func (g *asmgen) ins(format string, args ...any) {
	g.sb.WriteString("  ")
	fmt.Fprintf(g.sb, format, args...)
	g.sb.WriteByte('\n')
}

func (g *asmgen) clearCaches() {
	for i := range g.gpr {
		g.gpr[i] = -1
	}
	for i := range g.fpr {
		g.fpr[i] = -1
	}
	for i := range g.loc {
		g.loc[i] = regPair{noR, noR}
	}
	g.pins, g.fpin = 0, 0
}

func (g *asmgen) dropCallerSaved() {
	for _, r := range g.tgt.CallerSaved {
		if v := g.gpr[r]; v >= 0 {
			if g.loc[v].r1 == int16(r) {
				g.loc[v].r1 = noR
			}
			if g.loc[v].r2 == int16(r) {
				g.loc[v].r2 = noR
			}
			if g.loc[v].r1 == noR && g.loc[v].r2 != noR {
				// Half-cached wide value: drop entirely.
				g.gpr[g.loc[v].r2] = -1
				g.loc[v].r2 = noR
			}
			g.gpr[r] = -1
		}
	}
	for r := range g.fpr {
		if v := g.fpr[r]; v >= 0 {
			g.loc[v].r1 = noR
			g.fpr[r] = -1
		}
	}
}

func (g *asmgen) allocGPR() int16 {
	for _, r := range g.tgt.AllocatableGPRs() {
		if g.pins&(1<<r) != 0 {
			continue
		}
		if g.gpr[r] == -1 {
			g.pins |= 1 << r
			return int16(r)
		}
	}
	for _, r := range g.tgt.AllocatableGPRs() {
		if g.pins&(1<<r) != 0 {
			continue
		}
		// Evict (slots are authoritative: no store needed).
		v := g.gpr[r]
		if g.loc[v].r1 == int16(r) {
			g.loc[v].r1 = noR
		}
		if g.loc[v].r2 == int16(r) {
			g.loc[v].r2 = noR
		}
		if g.loc[v].r1 == noR || g.loc[v].r2 == noR {
			if g.gf.vars[v] == ctI128 {
				g.dropVar(v)
			}
		}
		g.gpr[r] = -1
		g.pins |= 1 << r
		return int16(r)
	}
	panic("cbe: out of registers")
}

func (g *asmgen) allocFPR() int16 {
	for r := 0; r < g.tgt.NumFPR; r++ {
		if g.fpin&(1<<uint(r)) != 0 {
			continue
		}
		if g.fpr[r] == -1 {
			g.fpin |= 1 << uint(r)
			return int16(r)
		}
	}
	for r := 0; r < g.tgt.NumFPR; r++ {
		if g.fpin&(1<<uint(r)) != 0 {
			continue
		}
		v := g.fpr[r]
		g.loc[v].r1 = noR
		g.fpr[r] = -1
		g.fpin |= 1 << uint(r)
		return int16(r)
	}
	panic("cbe: out of float registers")
}

func (g *asmgen) unpin() { g.pins, g.fpin = 0, 0 }

// use returns a register holding var v (low half).
func (g *asmgen) use(v int32) int16 {
	if g.gf.vars[v] == ctF64 {
		return g.useF(v)
	}
	if r := g.loc[v].r1; r != noR {
		g.pins |= 1 << uint(r)
		return r
	}
	r := g.allocGPR()
	g.ins("ld64 r%d, r%d, %d", r, g.tgt.SP, g.slot[v])
	g.loc[v].r1 = r
	g.gpr[r] = v
	return r
}

func (g *asmgen) usePair(v int32) (int16, int16) {
	lo := g.use(v)
	if r := g.loc[v].r2; r != noR {
		g.pins |= 1 << uint(r)
		return lo, r
	}
	r := g.allocGPR()
	g.ins("ld64 r%d, r%d, %d", r, g.tgt.SP, g.slot[v]+8)
	g.loc[v].r2 = r
	g.gpr[r] = v
	return lo, r
}

func (g *asmgen) useF(v int32) int16 {
	if r := g.loc[v].r1; r != noR {
		g.fpin |= 1 << uint(r)
		return r
	}
	r := g.allocFPR()
	g.ins("fld f%d, r%d, %d", r, g.tgt.SP, g.slot[v])
	g.loc[v].r1 = r
	g.fpr[r] = v
	return r
}

func (g *asmgen) dropVar(v int32) {
	if g.gf.vars[v] == ctF64 {
		if r := g.loc[v].r1; r != noR {
			g.fpr[r] = -1
		}
	} else {
		if r := g.loc[v].r1; r != noR {
			g.gpr[r] = -1
		}
		if r := g.loc[v].r2; r != noR {
			g.gpr[r] = -1
		}
	}
	g.loc[v] = regPair{noR, noR}
}

// def allocates the result register(s) for v and returns them; defDone
// writes through to the slot.
func (g *asmgen) def(v int32) int16 {
	g.dropVar(v)
	if g.gf.vars[v] == ctF64 {
		r := g.allocFPR()
		g.loc[v].r1 = r
		g.fpr[r] = v
		return r
	}
	r := g.allocGPR()
	g.loc[v].r1 = r
	g.gpr[r] = v
	return r
}

func (g *asmgen) defPair(v int32) (int16, int16) {
	g.dropVar(v)
	r1 := g.allocGPR()
	r2 := g.allocGPR()
	g.loc[v] = regPair{r1, r2}
	g.gpr[r1] = v
	g.gpr[r2] = v
	return r1, r2
}

// defDone stores the defined value to its slot (write-through).
func (g *asmgen) defDone(v int32) {
	sp := g.tgt.SP
	switch g.gf.vars[v] {
	case ctF64:
		g.ins("fst r%d, %d, f%d", sp, g.slot[v], g.loc[v].r1)
	case ctI128:
		g.ins("st64 r%d, %d, r%d", sp, g.slot[v], g.loc[v].r1)
		g.ins("st64 r%d, %d, r%d", sp, g.slot[v]+8, g.loc[v].r2)
	default:
		g.ins("st64 r%d, %d, r%d", sp, g.slot[v], g.loc[v].r1)
	}
	g.unpin()
}

// mov3 emits a (possibly two-address-constrained) ALU op.
func (g *asmgen) mov3(op string, d, a, b int16) {
	if g.tgt.TwoAddress && d != a {
		if d == b {
			// Use the op with swapped non-commutative handling via a
			// fresh temporary.
			t := g.allocGPR()
			g.ins("mov r%d, r%d", t, b)
			g.ins("mov r%d, r%d", d, a)
			g.ins("%s r%d, r%d, r%d", op, d, d, t)
			return
		}
		g.ins("mov r%d, r%d", d, a)
		a = d
	}
	g.ins("%s r%d, r%d, r%d", op, d, a, b)
}

func (g *asmgen) mov3i(op string, d, a int16, imm int64) {
	if g.tgt.TwoAddress && d != a {
		g.ins("mov r%d, r%d", d, a)
		a = d
	}
	g.ins("%s r%d, r%d, %d", op, d, a, imm)
}

func (g *asmgen) canon(t cType, r int16) {
	switch t {
	case ctI1:
		g.mov3i("andi", r, r, 1)
	case ctI8:
		g.mov3i("shli", r, r, 56)
		g.mov3i("sari", r, r, 56)
	case ctI16:
		g.mov3i("shli", r, r, 48)
		g.mov3i("sari", r, r, 48)
	case ctI32:
		g.mov3i("shli", r, r, 32)
		g.mov3i("sari", r, r, 32)
	}
}

var gBinName = map[gBinKind]string{
	bAdd: "add", bSub: "sub", bMul: "mul", bDiv: "sdiv", bRem: "srem",
	bUDiv: "udiv", bURem: "urem", bAnd: "and", bOr: "or", bXor: "xor",
	bShl: "shl", bShr: "shr", bSar: "sar",
}

var predName = map[string]struct{ s, u string }{
	"eq": {"eq", "eq"}, "ne": {"ne", "ne"},
	"lt": {"slt", "ult"}, "le": {"sle", "ule"},
	"gt": {"sgt", "ugt"}, "ge": {"sge", "uge"},
}
