package conformance_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"qcc/internal/backend"
	"qcc/internal/bench"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/sem"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// TestOpSemantics holds every engine, and both views the vm dispatches, to
// internal/sem, the one definition of what an operation means. Each integer
// QIR operation at each width that takes it runs over a grid of edge
// operands and must give sem's result or raise sem's trap: with register
// operands (one function per operation, called once per pair) and with
// constant operands on a smaller grid, which is what the constant folders
// see. Each vt ALU operation the lowerings emit runs as a one-instruction
// program, and each trap-free one also inside a run, on the unfused and on
// the fused view over the same grid.
// With -short only I8 and I64 are swept.
func TestOpSemantics(t *testing.T) {
	widths := []qir.Type{qir.I8, qir.I16, qir.I32, qir.I64, qir.I128}
	if testing.Short() {
		widths = []qir.Type{qir.I8, qir.I64}
	}
	for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
		t.Run(arch.String(), func(t *testing.T) {
			t.Run("vm", func(t *testing.T) { checkVMOps(t, arch) })
			for _, w := range widths {
				for _, constant := range []bool{false, true} {
					fns := opFuncs(w, constant)
					form := "reg"
					if constant {
						form = "const"
					}
					for _, eng := range bench.Engines(arch) {
						t.Run(fmt.Sprintf("%s/%s/%s", w, form, eng.Name()), func(t *testing.T) {
							checkEngineOps(t, arch, eng, fns)
						})
					}
				}
			}
		})
	}
}

// opFn is one test function: an operation at one operand type, and the
// operand pairs it is called on. An operand that is constant is baked into
// the body and equal in every pair.
type opFn struct {
	op             qir.Op
	cmp            qir.Cmp
	in, out        qir.Type
	unary          bool
	constA, constB bool
	pairs          [][2]sem.I128
}

// edges is the operand grid of type t: 0 and ±1, the minimum and maximum of
// every width that fits in t, and the shift counts 0, 1, N-1 and N of every
// width (63 and 64 among them).
func edges(t qir.Type) []sem.I128 {
	vs := []int64{0, 1, -1}
	for _, w := range []int64{8, 16, 32, 64} {
		if w <= 8*t.Size() {
			vs = append(vs, -1<<(w-1), 1<<(w-1)-1)
		}
		vs = append(vs, w-1, w)
	}
	var out []sem.I128
	seen := map[int64]bool{}
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, sext(v))
		}
	}
	if t == qir.I128 {
		out = append(out, sem.I128{Lo: 127}, sem.I128{Lo: 128}, sem.I128{Hi: 1},
			sem.I128{Hi: 1 << 63}, sem.I128{Lo: ^uint64(0), Hi: ^uint64(0) >> 1})
	}
	return out
}

// constEdges is the reduced grid of constant operands: 0, ±1, and t's
// minimum and maximum.
func constEdges(t qir.Type) []sem.I128 {
	if t == qir.I128 {
		return []sem.I128{{}, {Lo: 1}, {Lo: ^uint64(0), Hi: ^uint64(0)},
			{Hi: 1 << 63}, {Lo: ^uint64(0), Hi: ^uint64(0) >> 1}}
	}
	n := 8 * t.Size()
	return []sem.I128{{}, sext(1), sext(-1),
		sext(-1 << (n - 1)), sext(1<<(n-1) - 1)}
}

func pairsOf(as, bs []sem.I128) [][2]sem.I128 {
	var ps [][2]sem.I128
	for _, a := range as {
		for _, b := range bs {
			ps = append(ps, [2]sem.I128{a, b})
		}
	}
	return ps
}

// opFuncs lists the test functions of width w: every binary operation, the
// comparisons, Neg and Not, and the conversions between w and the next
// wider type. At I128 the operations are those every engine compiles — no
// division, rotation or Not, and shifts by constant counts only.
func opFuncs(w qir.Type, constant bool) []opFn {
	bin := []qir.Op{qir.OpAdd, qir.OpSub, qir.OpMul, qir.OpSDiv, qir.OpSRem, qir.OpUDiv, qir.OpURem,
		qir.OpAnd, qir.OpOr, qir.OpXor, qir.OpShl, qir.OpShr, qir.OpSar, qir.OpRotr,
		qir.OpSAddTrap, qir.OpSSubTrap, qir.OpSMulTrap}
	un := []qir.Op{qir.OpNeg, qir.OpNot}
	wide, narrow := qir.I64, w
	if w == qir.I128 {
		bin = []qir.Op{qir.OpAdd, qir.OpSub, qir.OpMul, qir.OpAnd, qir.OpOr, qir.OpXor,
			qir.OpSAddTrap, qir.OpSSubTrap, qir.OpSMulTrap}
		un = []qir.Op{qir.OpNeg}
	}
	if w == qir.I64 || w == qir.I128 {
		wide, narrow = qir.I128, qir.I64
	}
	var fns []opFn
	add := func(f opFn) {
		as, bs := edges(f.in), edges(f.in)
		if f.unary {
			bs = bs[:1]
		}
		if !constant {
			f.pairs = pairsOf(as, bs)
			fns = append(fns, f)
			return
		}
		as, bs = constEdges(f.in), constEdges(f.in)
		if f.unary {
			bs = bs[:1]
		} else if isShift(f.op) {
			bs = append(bs, sext(8*f.in.Size()))
		}
		for _, p := range pairsOf(as, bs) {
			g := f
			g.constA, g.constB, g.pairs = true, !f.unary, [][2]sem.I128{p}
			fns = append(fns, g)
		}
	}
	for _, op := range bin {
		add(opFn{op: op, in: w, out: w})
	}
	for c := qir.CmpEQ; c < qir.NumCmps; c++ {
		add(opFn{op: qir.OpICmp, cmp: c, in: w, out: qir.I1})
	}
	for _, op := range un {
		add(opFn{op: op, in: w, out: w, unary: true})
	}
	if w == qir.I128 {
		// Shifts take the count as a constant, over the 128-bit counts.
		for _, op := range []qir.Op{qir.OpShl, qir.OpShr, qir.OpSar} {
			for _, k := range []uint64{0, 1, 63, 64, 65, 127, 128} {
				f := opFn{op: op, in: w, out: w, constB: true}
				as := edges(w)
				if constant {
					as, f.constA = constEdges(w), true
				}
				for _, a := range as {
					f.pairs = append(f.pairs, [2]sem.I128{a, {Lo: k}})
				}
				if constant {
					for _, p := range f.pairs {
						g := f
						g.pairs = [][2]sem.I128{p}
						fns = append(fns, g)
					}
				} else {
					fns = append(fns, f)
				}
			}
		}
		return fns
	}
	add(opFn{op: qir.OpZExt, in: narrow, out: wide, unary: true})
	add(opFn{op: qir.OpSExt, in: narrow, out: wide, unary: true})
	add(opFn{op: qir.OpTrunc, in: wide, out: narrow, unary: true})
	return fns
}

func isShift(op qir.Op) bool {
	return op == qir.OpShl || op == qir.OpShr || op == qir.OpSar || op == qir.OpRotr
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// memory reports whether the function reads its register operands from
// memory: I128 operands are loaded from the address in its one parameter.
func (f *opFn) memory() bool { return f.in == qir.I128 && !f.constA }

// build emits the function into m.
func (f *opFn) build(m *qir.Module, name string) {
	var params []qir.Type
	switch {
	case f.memory():
		params = []qir.Type{qir.Ptr}
	default:
		if !f.constA {
			params = append(params, f.in)
		}
		if !f.unary && !f.constB {
			params = append(params, f.in)
		}
	}
	b := qir.NewFunc(m, name, f.out, params...)
	next := 0
	operand := func(i int, constant bool) qir.Value {
		v := f.pairs[0][i]
		switch {
		case constant && f.in == qir.I128 && i == 1 && isShift(f.op):
			// A 128-bit shift count is a plain constant, as the code
			// generator emits it.
			return b.ConstInt(qir.I128, int64(v.Lo))
		case constant && f.in == qir.I128:
			return b.Const128(v.Lo, v.Hi)
		case constant:
			return b.ConstInt(f.in, int64(v.Lo))
		case f.memory():
			return b.Load(qir.I128, b.GEP(b.Param(0), int64(16*i), qir.NoValue, 1))
		}
		next++
		return b.Param(next - 1)
	}
	a := operand(0, f.constA)
	var r qir.Value
	switch {
	case f.op == qir.OpICmp:
		r = b.ICmp(f.cmp, a, operand(1, f.constB))
	case f.op == qir.OpZExt || f.op == qir.OpSExt || f.op == qir.OpTrunc:
		r = b.Convert(f.op, f.out, a)
	case f.unary:
		r = b.Un(f.op, a)
	default:
		r = b.Bin(f.op, a, operand(1, f.constB))
	}
	b.Ret(r)
}

// want is sem's result for operands a and b.
func (f *opFn) want(a, b sem.I128) (sem.I128, vt.TrapCode, bool) {
	switch {
	case f.op == qir.OpICmp && f.in == qir.I128:
		return sem.I128{Lo: uint64(btoi(sem.ICmp128(f.cmp, a, b)))}, 0, true
	case f.op == qir.OpICmp:
		return sem.I128{Lo: uint64(btoi(sem.ICmp(f.cmp, a.Lo, b.Lo)))}, 0, true
	case f.op == qir.OpZExt || f.op == qir.OpSExt || f.op == qir.OpTrunc:
		lo, hi := sem.Convert(f.op, f.out, f.in, a.Lo)
		return sem.I128{Lo: lo, Hi: hi}, 0, true
	case f.in == qir.I128:
		return sem.Eval128(f.op, a, b)
	}
	r, trap, ok := sem.Eval(f.op, f.in, a.Lo, b.Lo)
	return sem.I128{Lo: r}, trap, ok
}

func (f *opFn) String() string {
	s := f.op.String()
	if f.op == qir.OpICmp {
		s += " " + f.cmp.String()
	}
	return fmt.Sprintf("%s %s->%s", s, f.in, f.out)
}

// checkEngineOps compiles fns as one module on eng and calls each function
// on its operand pairs.
func checkEngineOps(t *testing.T, arch vt.Arch, eng backend.Engine, fns []opFn) {
	m := qir.NewModule("opsem")
	for i := range fns {
		fns[i].build(m, fmt.Sprintf("f%d", i))
	}
	if err := m.VerifyModule(); err != nil {
		t.Fatal(err)
	}
	db := rt.NewDB(vm.New(vm.Config{Arch: arch, MemSize: 4 << 20}))
	ex, _, err := eng.Compile(m, &backend.Env{DB: db, Arch: arch})
	if err != nil {
		t.Fatal(err)
	}
	addr := db.M.Alloc(32)
	for i := range fns {
		f := &fns[i]
		bad := 0
		for _, p := range f.pairs {
			var args []uint64
			switch {
			case f.memory():
				binary.LittleEndian.PutUint64(db.M.Mem[addr:], p[0].Lo)
				binary.LittleEndian.PutUint64(db.M.Mem[addr+8:], p[0].Hi)
				binary.LittleEndian.PutUint64(db.M.Mem[addr+16:], p[1].Lo)
				binary.LittleEndian.PutUint64(db.M.Mem[addr+24:], p[1].Hi)
				args = []uint64{addr}
			default:
				if !f.constA {
					args = append(args, p[0].Lo)
				}
				if !f.unary && !f.constB {
					args = append(args, p[1].Lo)
				}
			}
			res, err := ex.Call(i, args...)
			got := sem.I128{Lo: res[0], Hi: res[1]}
			want, trap, ok := f.want(p[0], p[1])
			if f.out != qir.I128 {
				got.Hi, want.Hi = 0, 0
			}
			var msg string
			switch tr, isTrap := err.(*vm.Trap); {
			case !ok && (!isTrap || tr.Code != trap):
				msg = fmt.Sprintf("got %v, %v; want trap %s", got, err, trap)
			case ok && err != nil:
				msg = fmt.Sprintf("got %v; want %v", err, want)
			case ok && got != want:
				msg = fmt.Sprintf("got %#x:%#x, want %#x:%#x", got.Hi, got.Lo, want.Hi, want.Lo)
			default:
				continue
			}
			if bad++; bad <= 3 {
				t.Errorf("%s(%#x, %#x): %s", f, p[0].Lo, p[1].Lo, msg)
			}
		}
		if bad > 3 {
			t.Errorf("%s: %d of %d operand pairs differ from sem", f, bad, len(f.pairs))
		}
	}
}

// checkVMOps runs each vt ALU operation as a one-instruction program on the
// unfused and on the fused view. Operands arrive in r0 and r1 and the result
// leaves in r0 (and r1), which both targets' conventions agree on. The fuser
// emits a run of one step as a main-stream micro-op, so each trap-free
// operation also runs behind two Nops: one run of three steps, executed by
// stepRun.
func checkVMOps(t *testing.T, arch vt.Arch) {
	words := edges(qir.I64)
	m := vm.New(vm.Config{Arch: arch, MemSize: 4 << 20})
	type prog struct {
		name string
		body []vt.Instr
		// want is sem's meaning: the two result words, or the trap.
		want func(a, b uint64) (sem.I128, vt.TrapCode, bool)
		// imm is set when the program ignores r1 (an immediate or unary
		// operation).
		imm bool
		// brcc is the condition of a program with no body: a conditional
		// branch that returns 1 when taken and 0 when not.
		brcc vt.Cond
		// wide is set when the result is two words.
		wide bool
	}
	eval := func(op qir.Op, imm *int64) func(a, b uint64) (sem.I128, vt.TrapCode, bool) {
		return func(a, b uint64) (sem.I128, vt.TrapCode, bool) {
			if imm != nil {
				b = uint64(*imm)
			}
			r, trap, ok := sem.Eval(op, qir.I64, a, b)
			return sem.I128{Lo: r}, trap, ok
		}
	}
	var progs []prog
	rr := map[vt.Op]qir.Op{vt.Add: qir.OpAdd, vt.Sub: qir.OpSub, vt.Mul: qir.OpMul, vt.And: qir.OpAnd,
		vt.Or: qir.OpOr, vt.Xor: qir.OpXor, vt.Shl: qir.OpShl, vt.Shr: qir.OpShr, vt.Sar: qir.OpSar,
		vt.Rotr: qir.OpRotr, vt.SDiv: qir.OpSDiv, vt.SRem: qir.OpSRem, vt.UDiv: qir.OpUDiv, vt.URem: qir.OpURem}
	ri := map[vt.Op]qir.Op{vt.AddI: qir.OpAdd, vt.SubI: qir.OpSub, vt.MulI: qir.OpMul, vt.AndI: qir.OpAnd,
		vt.OrI: qir.OpOr, vt.XorI: qir.OpXor, vt.ShlI: qir.OpShl, vt.ShrI: qir.OpShr, vt.SarI: qir.OpSar,
		vt.RotrI: qir.OpRotr}
	for vop, op := range rr {
		progs = append(progs, prog{name: vop.String(), body: []vt.Instr{{Op: vop, RD: 0, RA: 0, RB: 1}}, want: eval(op, nil)})
	}
	for vop, op := range ri {
		for _, w := range words {
			imm := int64(w.Lo)
			progs = append(progs, prog{name: fmt.Sprintf("%s %d", vop, imm), imm: true,
				body: []vt.Instr{{Op: vop, RD: 0, RA: 0, Imm: imm}}, want: eval(op, &imm)})
		}
	}
	progs = append(progs,
		prog{name: "neg", imm: true, body: []vt.Instr{{Op: vt.Neg, RD: 0, RA: 0}}, want: eval(qir.OpNeg, nil)},
		prog{name: "not", imm: true, body: []vt.Instr{{Op: vt.Not, RD: 0, RA: 0}}, want: eval(qir.OpNot, nil)},
		prog{name: "mulwu", wide: true, body: []vt.Instr{{Op: vt.MulWideU, RD: 0, RC: 1, RA: 0, RB: 1}},
			want: func(a, b uint64) (sem.I128, vt.TrapCode, bool) {
				return sem.I128{Lo: a}.Mul(sem.I128{Lo: b}), 0, true
			}},
		prog{name: "mulws", wide: true, body: []vt.Instr{{Op: vt.MulWideS, RD: 0, RC: 1, RA: 0, RB: 1}},
			want: func(a, b uint64) (sem.I128, vt.TrapCode, bool) {
				hi, lo := sem.MulWideS(a, b)
				return sem.I128{Lo: lo, Hi: hi}, 0, true
			}})
	for c := vt.CondEQ; c < vt.NumConds; c++ {
		cmp := func(a, b uint64) (sem.I128, vt.TrapCode, bool) {
			return sem.I128{Lo: uint64(btoi(sem.ICmp(qir.Cmp(c), a, b)))}, 0, true
		}
		progs = append(progs,
			prog{name: "set " + c.String(), body: []vt.Instr{{Op: vt.SetCC, Cond: c, RD: 0, RA: 0, RB: 1}}, want: cmp},
			prog{name: "brcc " + c.String(), brcc: c, want: cmp})
	}
	for _, p := range progs {
		if p.body != nil && !p.body[0].Op.CanTrap() {
			p.name += " (run)"
			p.body = append([]vt.Instr{{Op: vt.Nop}, {Op: vt.Nop}}, p.body...)
			progs = append(progs, p)
		}
	}
	for _, p := range progs {
		asm := vt.NewAssembler(arch)
		if p.body == nil { // brcc: r0 = 1 when taken, 0 when not
			taken := asm.NewLabel()
			asm.Emit(vt.Instr{Op: vt.BrCC, Cond: p.brcc, RA: 0, RB: 1, Target: int32(taken)})
			asm.Emit(vt.Instr{Op: vt.MovRI, RD: 0, Imm: 0})
			asm.Emit(vt.Instr{Op: vt.Ret})
			asm.Bind(taken)
			p.body = []vt.Instr{{Op: vt.MovRI, RD: 0, Imm: 1}}
		}
		for _, in := range p.body {
			asm.Emit(in)
		}
		asm.Emit(vt.Instr{Op: vt.Ret})
		code, _, err := asm.Finish()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for _, fuse := range []bool{false, true} {
			mod, err := vm.Load(arch, code)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			mod.SetFuse(fuse)
			bad := 0
			for _, a := range words {
				for _, b := range words {
					if p.imm && b != words[0] {
						continue
					}
					res, err := m.Call(mod, 0, a.Lo, b.Lo)
					want, trap, ok := p.want(a.Lo, b.Lo)
					got := sem.I128{Lo: res[0], Hi: res[1]}
					if !p.wide {
						got.Hi = 0
					}
					tr, isTrap := err.(*vm.Trap)
					if ok && (err != nil || got != want) || !ok && (!isTrap || tr.Code != trap) {
						if bad++; bad <= 3 {
							t.Errorf("%s (fuse %v) on %#x, %#x: got %#x:%#x, %v; want %#x:%#x, ok %v",
								p.name, fuse, a.Lo, b.Lo, got.Hi, got.Lo, err, want.Hi, want.Lo, ok)
						}
					}
				}
			}
		}
	}
}

// sext is v as an I128.
func sext(v int64) sem.I128 { return sem.I128{Lo: uint64(v), Hi: uint64(v >> 63)} }
