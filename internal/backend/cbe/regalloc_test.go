package cbe

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"qcc/internal/sem"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// The allocator is tested against a Go evaluation of the TAC it allocates
// for: C text is gimplified twice, one copy is interpreted here as it stands,
// the other goes through the optimizer, the allocator, the assembler and the
// linker and runs on the machine. Return value and memory must agree.

// val is a variable's value: lo alone for everything but i128; float bits
// for f64.
type val struct{ lo, hi uint64 }

func sext(v uint64) uint64 { return uint64(int64(v) >> 63) }

// rtModel is the one runtime function the test programs call.
func rtModel(a, b uint64) val { return val{a*1000003 ^ b, a + b} }

func canonV(t cType, v uint64) uint64 { return sem.Canon(semTypes[t], v) }

func convert(from, to cType, a val) val {
	switch {
	case to == ctI128 && from == ctI128:
		return a
	case to == ctI128:
		return val{a.lo, sext(a.lo)}
	case to == ctF64 && from == ctF64:
		return a
	case to == ctF64:
		return val{lo: math.Float64bits(float64(int64(a.lo)))}
	case from == ctF64:
		return val{lo: canonV(to, uint64(int64(math.Float64frombits(a.lo))))}
	case to.bits() < from.bits():
		return val{lo: canonV(to, a.lo)}
	}
	return val{lo: a.lo}
}

func cmpOK(pred string, lt, eq bool) bool {
	switch pred {
	case "eq":
		return eq
	case "ne":
		return !eq
	case "lt":
		return lt
	case "le":
		return lt || eq
	case "gt":
		return !lt && !eq
	}
	return !lt
}

// evalTAC interprets a gimpleFunc, optimized or not. Memory accesses go to
// mem, which stands for the machine memory at base.
func evalTAC(t *testing.T, gf *gimpleFunc, args []uint64, mem []byte, base uint64) val {
	vars := make([]val, len(gf.vars))
	for p := 0; p < gf.nparams; p++ {
		vars[p] = val{lo: args[p]}
	}
	labels := map[int32]int{}
	for i, c := range gf.code {
		if c.op == gLabel {
			labels[c.label] = i
		}
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for pc, steps := 0, 0; pc < len(gf.code); pc, steps = pc+1, steps+1 {
		if steps > 1<<20 {
			t.Fatal("evalTAC: runaway program")
		}
		c := &gf.code[pc]
		var a, b val
		if c.a >= 0 {
			a = vars[c.a]
		}
		if c.b >= 0 {
			b = vars[c.b]
		} else {
			b = val{lo: uint64(c.imm)} // the optimizer's immediate operand
		}
		switch c.op {
		case gLabel:
		case gGoto:
			pc = labels[c.label]
		case gIfGoto:
			taken := a.lo != 0
			if c.pred != "" { // a folded integer compare
				lt := int64(a.lo) < int64(b.lo)
				if c.unsig {
					lt = a.lo < b.lo
				}
				taken = cmpOK(c.pred, lt, a.lo == b.lo)
			}
			if taken {
				pc = labels[c.label]
			}
		case gRet:
			if c.a < 0 {
				return val{}
			}
			return a
		case gConst:
			vars[c.dst] = val{uint64(c.imm), uint64(c.imm >> 63)}
		case gMov:
			vars[c.dst] = convert(gf.vars[c.a], gf.vars[c.dst], a)
		case gCast:
			vars[c.dst] = convert(c.ct2, c.ct, a)
		case gCmp:
			var lt, eq bool
			switch gf.vars[c.a] {
			case ctF64:
				x, y := math.Float64frombits(a.lo), math.Float64frombits(b.lo)
				lt, eq = x < y, x == y
			case ctI128:
				eq = a == b
				lt = int64(a.hi) < int64(b.hi) || a.hi == b.hi && a.lo < b.lo
			default:
				eq = a.lo == b.lo
				lt = int64(a.lo) < int64(b.lo)
				if c.unsig {
					lt = a.lo < b.lo
				}
			}
			vars[c.dst] = val{lo: b2u(cmpOK(c.pred, lt, eq))}
		case gBin:
			vars[c.dst] = evalBin(t, c, a, b)
		case gLoad, gStore:
			off := a.lo + uint64(c.imm) - base
			if off+16 > uint64(len(mem)) {
				t.Fatalf("evalTAC: access at %#x outside the test buffer", a.lo)
			}
			switch {
			case c.op == gLoad && c.ct == ctI32:
				vars[c.dst] = val{lo: uint64(int64(int32(binary.LittleEndian.Uint32(mem[off:]))))}
			case c.op == gLoad:
				vars[c.dst] = val{binary.LittleEndian.Uint64(mem[off:]), binary.LittleEndian.Uint64(mem[off+8:])}
			case c.ct == ctI32:
				binary.LittleEndian.PutUint32(mem[off:], uint32(b.lo))
			default:
				binary.LittleEndian.PutUint64(mem[off:], b.lo)
				if c.ct == ctI128 {
					binary.LittleEndian.PutUint64(mem[off+8:], b.hi)
				}
			}
		case gCall:
			vars[c.dst] = rtModel(vars[c.args[0]].lo, vars[c.args[1]].lo)
		case gBuiltin:
			x := vars[c.args[0]]
			switch c.bi {
			case biI128:
				vars[c.dst] = val{x.lo, vars[c.args[1]].lo}
			case biSelect, biFSelect:
				if x.lo != 0 {
					vars[c.dst] = vars[c.args[1]]
				} else {
					vars[c.dst] = vars[c.args[2]]
				}
			case biF64Bits, biBitsF64:
				vars[c.dst] = x
			case biAddTrap, biSubTrap, biMulTrap: // the tests stay clear of overflow
				y := vars[c.args[1]]
				if c.ct2 == ctI128 {
					vars[c.dst] = evalBin(t, &tac{ct: ctI128, bin: map[builtinKind]gBinKind{biAddTrap: bAdd, biSubTrap: bSub}[c.bi]}, x, y)
				} else {
					r := map[builtinKind]uint64{biAddTrap: x.lo + y.lo, biSubTrap: x.lo - y.lo, biMulTrap: x.lo * y.lo}[c.bi]
					vars[c.dst] = val{lo: canonV(c.ct2, r)}
				}
			case biRotr:
				vars[c.dst] = val{lo: bits.RotateLeft64(x.lo, -int(vars[c.args[1]].lo&63))}
			case biZext:
				vars[c.dst] = val{lo: x.lo & (1<<c.ct2.bits() - 1)}
			case biCrc32:
				vars[c.dst] = val{lo: vt.Crc32c8(x.lo, vars[c.args[1]].lo)}
			case biLMulFold:
				hi, lo := bits.Mul64(x.lo, vars[c.args[1]].lo)
				vars[c.dst] = val{lo: lo ^ hi}
			default:
				t.Fatalf("evalTAC: builtin %d", c.bi)
			}
		default:
			t.Fatalf("evalTAC: op %d", c.op)
		}
	}
	t.Fatal("evalTAC: fell off the function")
	return val{}
}

func evalBin(t *testing.T, c *tac, a, b val) val {
	switch c.ct {
	case ctF64:
		x, y := math.Float64frombits(a.lo), math.Float64frombits(b.lo)
		r := map[gBinKind]float64{bAdd: x + y, bSub: x - y, bMul: x * y}[c.bin]
		return val{lo: math.Float64bits(r)}
	case ctI128:
		switch c.bin {
		case bAdd:
			lo, carry := bits.Add64(a.lo, b.lo, 0)
			hi, _ := bits.Add64(a.hi, b.hi, carry)
			return val{lo, hi}
		case bSub:
			lo, borrow := bits.Sub64(a.lo, b.lo, 0)
			hi, _ := bits.Sub64(a.hi, b.hi, borrow)
			return val{lo, hi}
		case bMul:
			hi, lo := bits.Mul64(a.lo, b.lo)
			return val{lo, hi + a.lo*b.hi + a.hi*b.lo}
		case bXor:
			return val{a.lo ^ b.lo, a.hi ^ b.hi}
		case bSar:
			if b.lo == 64 {
				return val{a.hi, sext(a.hi)}
			}
		}
		t.Fatalf("evalTAC: 128-bit op %d by %d", c.bin, b.lo)
	}
	var r uint64
	switch c.bin {
	case bAdd:
		r = a.lo + b.lo
	case bSub:
		r = a.lo - b.lo
	case bMul:
		r = a.lo * b.lo
	case bAnd:
		r = a.lo & b.lo
	case bOr:
		r = a.lo | b.lo
	case bXor:
		r = a.lo ^ b.lo
	case bShl:
		r = a.lo << (b.lo & 63)
	case bShr:
		r = a.lo >> (b.lo & 63)
	case bSar:
		r = uint64(int64(a.lo) >> (b.lo & 63))
	default:
		t.Fatalf("evalTAC: op %d", c.bin)
	}
	return val{lo: canonV(c.ct, r)}
}

// runBoth compiles the one function in src for arch, runs it and the TAC
// evaluation on the same arguments (the last being a pointer to a zeroed
// buffer) and compares result and buffer. It returns the assembly text.
func runBoth(t *testing.T, src string, arch vt.Arch, args ...uint64) string {
	t.Helper()
	toks, err := lexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	fns, err := parseUnit(toks)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	ref, err := gimplify(fns[0])
	if err != nil {
		t.Fatal(err)
	}
	gf, _ := gimplify(fns[0])
	tgt := vt.ForArch(arch)
	optimizeGimple(gf, tgt)
	var text strings.Builder
	if err := genAsm(gf, tgt, &text); err != nil {
		t.Fatal(err)
	}
	objs, err := assemble(text.String(), arch)
	if err != nil {
		t.Fatalf("%v\n%s", err, text.String())
	}
	code, offsets, err := link(objs, arch)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := vm.Load(arch, code)
	if err != nil {
		t.Fatal(err)
	}

	m := vm.New(vm.Config{Arch: arch, MemSize: 4 << 20})
	// The runtime function leaves nothing a callee may clobber intact.
	m.RT = []vm.RTFunc{func(m *vm.Machine) error {
		r := rtModel(m.R[tgt.IntArgs[0]], m.R[tgt.IntArgs[1]])
		for _, c := range tgt.CallerSaved {
			m.R[c] = 0xDEAD0000 + uint64(c)
		}
		for f := range m.F {
			m.F[f] = math.NaN()
		}
		m.R[tgt.IntRet[0]], m.R[tgt.IntRet[1]] = r.lo, r.hi
		return nil
	}}
	const bufSize = 512
	buf := m.Alloc(bufSize)
	args = append(args, buf)
	mem := make([]byte, bufSize)
	want := evalTAC(t, ref, args, mem, buf)
	optMem := make([]byte, bufSize)
	if opt := evalTAC(t, gf, args, optMem, buf); opt != want || string(optMem) != string(mem) {
		t.Fatalf("%v: the optimized TAC evaluates to %#x:%#x, the original to %#x:%#x\n%s", arch, opt.hi, opt.lo, want.hi, want.lo, src)
	}
	got, err := m.Call(mod, offsets[fns[0].name], args...)
	if err != nil {
		t.Fatalf("%v: %v\n%s", arch, err, text.String())
	}
	if ref.ret != ctVoid && got[0] != want.lo || ref.ret == ctI128 && got[1] != want.hi {
		t.Errorf("%v: returned %#x:%#x, TAC evaluates to %#x:%#x\n%s\n%s", arch, got[1], got[0], want.hi, want.lo, src, text.String())
	}
	for off := range mem {
		if m.Mem[buf+uint64(off)] != mem[off] {
			t.Errorf("%v: byte %d of the buffer differs from the TAC evaluation\n%s\n%s", arch, off, src, text.String())
			break
		}
	}
	return text.String()
}

// progGen writes random programs in the generated C dialect: pools of i64,
// i32, i128 and f64 variables, all assigned before a counted loop, reassigned
// at random inside it — behind forward branches too — and all folded into
// the result after it, so every one of them is live throughout.
type progGen struct {
	rng                *rand.Rand
	body               strings.Builder
	i64, i32, w, f, c1 []string
	labels             int
}

func (g *progGen) pick(pool []string) string { return pool[g.rng.Intn(len(pool))] }

func (g *progGen) stmt(format string, a ...any) { fmt.Fprintf(&g.body, "  "+format+"\n", a...) }

// assign writes one random assignment.
func (g *progGen) assign(calls bool) {
	ops := []string{"+", "-", "*", "&", "|", "^"}
	switch k := g.rng.Intn(20); {
	case k < 6:
		g.stmt("%s = (i64)(%s %s %s);", g.pick(g.i64), g.pick(g.i64), g.pick(ops), g.pick(g.i64))
	case k < 8:
		g.stmt("%s = (i64)(%s %s %dLL);", g.pick(g.i64), g.pick(g.i64), g.pick([]string{"+", "*", "<<", ">>", "&"}), g.rng.Intn(40))
	case k == 8:
		g.stmt("%s = (i64)((u64)%s >> %dLL);", g.pick(g.i64), g.pick(g.i64), 1+g.rng.Intn(62))
	case k == 9 && len(g.i32) > 0:
		g.stmt("%s = (i32)(%s %s %s);", g.pick(g.i32), g.pick(g.i32), g.pick(ops[:3]), g.pick(g.i32))
		g.stmt("%s = (i64)%s;", g.pick(g.i64), g.pick(g.i32))
		g.stmt("%s = (i32)%s;", g.pick(g.i32), g.pick(g.i64))
	case k == 10:
		g.stmt("%s = (i1)(%s %s %s);", g.pick(g.c1), g.pick(g.i64), g.pick([]string{"<", "<=", "==", "!=", ">"}), g.pick(g.i64))
		g.stmt("%s = (i1)((u64)%s < (u64)%s);", g.pick(g.c1), g.pick(g.i64), g.pick(g.i64))
	case k == 11:
		g.stmt("%s = __select(%s, %s, %s);", g.pick(g.i64), g.pick(g.c1), g.pick(g.i64), g.pick(g.i64))
	case k == 12 && len(g.w) > 0:
		g.stmt("%s = (i128)(%s %s %s);", g.pick(g.w), g.pick(g.w), g.pick([]string{"+", "-", "*", "^"}), g.pick(g.w))
	case k == 13 && len(g.w) > 0:
		g.stmt("%s = __i128(%s, %s);", g.pick(g.w), g.pick(g.i64), g.pick(g.i64))
		g.stmt("%s = (i1)(%s %s %s);", g.pick(g.c1), g.pick(g.w), g.pick([]string{"<", ">=", "=="}), g.pick(g.w))
	case k == 14 && len(g.w) > 0:
		g.stmt("%s = (i64)%s;", g.pick(g.i64), g.pick(g.w))
		g.stmt("%s = (i64)(%s >> 64LL);", g.pick(g.i64), g.pick(g.w))
		g.stmt("%s = (i128)%s;", g.pick(g.w), g.pick(g.i64))
	case k == 15 && len(g.f) > 0:
		// No products: sums of small integers stay finite, and a NaN's
		// payload may depend on operand order.
		g.stmt("%s = %s %s %s;", g.pick(g.f), g.pick(g.f), g.pick([]string{"+", "-"}), g.pick(g.f))
	case k == 16 && len(g.f) > 0:
		g.stmt("%s = (f64)(i64)(%s & 1023LL);", g.pick(g.f), g.pick(g.i64))
		g.stmt("%s = (i1)(%s < %s);", g.pick(g.c1), g.pick(g.f), g.pick(g.f))
		g.stmt("%s = __fselect(%s, %s, %s);", g.pick(g.f), g.pick(g.c1), g.pick(g.f), g.pick(g.f))
	case k == 17 && calls:
		if len(g.w) > 0 && g.rng.Intn(2) == 0 {
			g.stmt("%s = rt0(%s, %s);", g.pick(g.w), g.pick(g.i64), g.pick(g.i64))
		} else {
			g.stmt("%s = (i64)rt0(%s, %s);", g.pick(g.i64), g.pick(g.i64), g.pick(g.i64))
		}
	case k == 18:
		g.stmt("*(i64*)(buf + %dLL) = %s;", 8*g.rng.Intn(32), g.pick(g.i64))
		g.stmt("%s = *(i64*)(buf + %dLL + (i64)(%s & 7LL) * 8LL);", g.pick(g.i64), 8*g.rng.Intn(16), g.pick(g.i64))
		g.stmt("*(i32*)(buf + %dLL) = (i32)%s;", 256+4*g.rng.Intn(32), g.pick(g.i64))
	case k == 19 && len(g.w) > 0:
		g.stmt("*(i128*)(buf + %dLL) = %s;", 384+16*g.rng.Intn(6), g.pick(g.w))
		g.stmt("%s = *(i128*)(buf + %dLL);", g.pick(g.w), 384+16*g.rng.Intn(6))
	default:
		g.stmt("%s = (i64)(%s + %s);", g.pick(g.i64), g.pick(g.i64), g.pick(g.i64))
	}
}

func pool(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return names
}

// program returns the C text of one random function f(i64 a, i64 n, ptr buf).
func program(seed int64, nI64, nI32, nW, nF, stmts int, loop, calls bool) string {
	g := &progGen{rng: rand.New(rand.NewSource(seed))}
	g.i64, g.i32, g.w, g.f, g.c1 = pool("x", nI64), pool("s", nI32), pool("w", nW), pool("f", nF), pool("c", 3)
	var decls strings.Builder
	for i, p := range [][]string{g.i64, g.i32, g.w, g.f, g.c1} {
		for _, v := range p {
			fmt.Fprintf(&decls, "  %s %s;\n", []string{"i64", "i32", "i128", "f64", "i1"}[i], v)
		}
	}
	for i, v := range g.i64 {
		g.stmt("%s = (i64)(a * %dLL + %dLL);", v, 2*i+3, 1000*i+7)
	}
	for i, v := range g.i32 {
		g.stmt("%s = (i32)(a + %dLL);", v, 77*i)
	}
	for i, v := range g.w {
		g.stmt("%s = __i128(%s, %dLL);", v, g.pick(g.i64), i-2)
	}
	for _, v := range g.f {
		g.stmt("%s = (f64)(i64)(%s & 1023LL);", v, g.pick(g.i64))
	}
	for _, v := range g.c1 {
		g.stmt("%s = (i1)(%s < %s);", v, g.pick(g.i64), g.pick(g.i64))
	}
	if loop {
		g.stmt("i = (i64)0LL;\nL1:;\n  c = (i1)(i < n);\n  if (c) goto L2;\n  goto L3;\nL2:;")
	}
	for s := 0; s < stmts; s++ {
		if loop && g.rng.Intn(8) == 0 {
			// A forward branch over the next few statements.
			g.labels++
			l := 10 + g.labels
			g.stmt("if (%s) goto L%d;", g.pick(g.c1), l)
			for k := g.rng.Intn(4); k >= 0; k-- {
				g.assign(calls)
			}
			g.stmt("goto L%d;\nL%d:;", l, l)
		}
		g.assign(calls)
	}
	if loop {
		g.stmt("i = (i64)(i + 1LL);\n  goto L1;\nL3:;")
	}
	g.stmt("r = (i64)0LL;")
	for _, v := range g.i64 {
		g.stmt("r = (i64)(r * 31LL + %s);", v)
	}
	for _, v := range g.i32 {
		g.stmt("r = (i64)(r * 31LL + (i64)%s);", v)
	}
	for _, v := range g.w {
		g.stmt("r = (i64)(r * 31LL + (i64)%s); r = (i64)(r ^ (i64)(%s >> 64LL));", v, v)
	}
	for _, v := range g.f {
		g.stmt("r = (i64)(r * 31LL + __f64bits(%s));", v)
	}
	g.stmt("return r;")
	return "i64 f(i64 a, i64 n, ptr buf) {\n  i64 i; i1 c; i64 r;\n" + decls.String() + g.body.String() + "}\n"
}

// TestAllocatorStress: more live values than the target has registers, of
// every class, straight-line and across a loop with forward branches, calls
// that clobber every caller-saved register, and 128-bit pairs that lose one
// half at a time.
func TestAllocatorStress(t *testing.T) {
	shapes := []struct {
		name                   string
		nI64, nI32, nW, nF, st int
		loop, calls            bool
	}{
		{"straight-i64", 40, 0, 0, 0, 120, false, false},
		{"loop-i64", 36, 4, 0, 0, 80, true, false},
		{"i128-pairs", 6, 0, 14, 0, 90, true, false},
		{"across-calls", 24, 2, 4, 3, 80, true, true},
		{"f64-pressure", 6, 0, 0, 24, 90, true, true},
		{"mixed", 20, 4, 8, 10, 160, true, true},
	}
	for _, sh := range shapes {
		for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
			for seed := int64(1); seed <= 16; seed++ {
				src := program(seed, sh.nI64, sh.nI32, sh.nW, sh.nF, sh.st, sh.loop, sh.calls)
				t.Run(fmt.Sprintf("%s/%v/%d", sh.name, arch, seed), func(t *testing.T) {
					text := runBoth(t, src, arch, uint64(seed*7919), uint64(seed%6))
					if sh.nI64+2*sh.nW > vt.ForArch(arch).NumGPR && !strings.Contains(text, "st64 r"+fmt.Sprint(vt.ForArch(arch).SP)) {
						t.Error("no value was ever spilled: the shape does not stress the allocator")
					}
				})
			}
		}
	}
}

// TestAllocatorHomes: an aggregation loop in the shape the query compiler
// emits — accumulators updated in place by the trapping builtins, a hash, a
// call per row — so that values with a home are operands of the instruction
// that redefines them, on both targets.
func TestAllocatorHomes(t *testing.T) {
	const src = `i64 f(i64 a, i64 n, ptr buf) {
  i64 i; i1 c; i64 sum; i128 wide; i32 cnt; i64 h; i64 x; i128 w; i64 k; i64 r;
  i = (i64)0LL; sum = (i64)0LL; cnt = (i32)0LL; h = a; wide = __i128(a, 0LL);
  k = (i64)(a & 1023LL);
L1:;
  c = (i1)(i < n);
  if (c) goto L2;
  goto L3;
L2:;
  x = (i64)(k * 3LL + i);
  sum = __addtrap_i64(sum, x);
  sum = __subtrap_i64(sum, i);
  sum = __multrap_i64(sum, 3LL);
  cnt = __addtrap_i32(cnt, (i32)1LL);
  w = (i128)x;
  wide = __addtrap_i128(wide, w);
  wide = __subtrap_i128(wide, (i128)i);
  h = __crc32(h, x);
  h = __lmulfold(h, 2685821657736338717LL);
  h = __rotr(h, 13LL);
  h = (i64)(h ^ (i64)__zext_i32((i32)x));
  x = (i64)rt0(h, sum);
  h = (i64)(x - h);
  *(i64*)(buf + 0LL + (i64)(i & 7LL) * 8LL) = h;
  i = (i64)(i + 1LL);
  goto L1;
L3:;
  r = (i64)(sum ^ h);
  r = (i64)(r + (i64)cnt);
  r = (i64)(r ^ (i64)wide);
  r = (i64)(r + (i64)(wide >> 64LL));
  return r;
}
`
	for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
		for _, n := range []uint64{0, 1, 9} {
			runBoth(t, src, arch, 123456789, n)
		}
	}
}

// TestLeafFunctionHasNoFrame: a function that fits in the caller-saved
// registers saves and restores nothing and does not move the stack pointer;
// an empty one is a single ret.
func TestLeafFunctionHasNoFrame(t *testing.T) {
	for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
		text := runBoth(t, "i64 f(i64 a, i64 n, ptr buf) {\n  i64 v; i1 c;\n  v = (i64)(a * 3LL + n);\n  c = (i1)(v < n);\n  v = __select(c, v, a);\n  *(i64*)(buf + 8LL) = v;\n  return v;\n}\n", arch, 41, 5)
		for _, bad := range []string{"st64 r" + fmt.Sprint(vt.ForArch(arch).SP), "ld64", "subi", "addi r" + fmt.Sprint(vt.ForArch(arch).SP)} {
			if strings.Contains(text, bad) {
				t.Errorf("%v: leaf function contains %q:\n%s", arch, bad, text)
			}
		}
		empty := runBoth(t, "void f(i64 a, i64 n, ptr buf) {\nL0:;\n  return;\n}\n", arch, 1, 2)
		if empty != ".func f\n  ret\n.endfunc\n" {
			t.Errorf("%v: empty function compiles to:\n%s", arch, empty)
		}
	}
}
