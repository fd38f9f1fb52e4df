package vm

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"qcc/internal/qir"
	"qcc/internal/vt"
)

// TestCondIsCmp pins the numbering evalCond and evalFCond rely on: every
// vt.Cond is the qir.Cmp of the same meaning, cast.
func TestCondIsCmp(t *testing.T) {
	pairs := []struct {
		c vt.Cond
		p qir.Cmp
	}{
		{vt.CondEQ, qir.CmpEQ}, {vt.CondNE, qir.CmpNE},
		{vt.CondSLT, qir.CmpSLT}, {vt.CondSLE, qir.CmpSLE}, {vt.CondSGT, qir.CmpSGT}, {vt.CondSGE, qir.CmpSGE},
		{vt.CondULT, qir.CmpULT}, {vt.CondULE, qir.CmpULE}, {vt.CondUGT, qir.CmpUGT}, {vt.CondUGE, qir.CmpUGE},
	}
	if len(pairs) != int(vt.NumConds) || int(vt.NumConds) != int(qir.NumCmps) {
		t.Fatalf("%d pairs, %d conditions, %d predicates", len(pairs), vt.NumConds, qir.NumCmps)
	}
	for _, x := range pairs {
		if qir.Cmp(x.c) != x.p {
			t.Errorf("condition %d is predicate %s, want %s", x.c, qir.Cmp(x.c), x.p)
		}
	}
}

func assemble(t *testing.T, arch vt.Arch, build func(a vt.Assembler)) *Module {
	t.Helper()
	a := vt.NewAssembler(arch)
	build(a)
	code, _, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Load(arch, code)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func both(t *testing.T, f func(t *testing.T, arch vt.Arch)) {
	t.Run("vx64", func(t *testing.T) { f(t, vt.VX64) })
	t.Run("va64", func(t *testing.T) { f(t, vt.VA64) })
}

// mov3 emits a three-address ALU op portably: on two-address targets it
// copies RA into RD first.
func mov3(a vt.Assembler, op vt.Op, rd, ra, rb uint8) {
	if a.Target().TwoAddress && rd != ra {
		a.Emit(vt.Instr{Op: vt.MovRR, RD: rd, RA: ra})
		ra = rd
	}
	a.Emit(vt.Instr{Op: op, RD: rd, RA: ra, RB: rb})
}

func TestLoopSum(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		// sum 1..n: arg in r0, result in r0.
		mod := assemble(t, arch, func(a vt.Assembler) {
			loop := a.NewLabel()
			done := a.NewLabel()
			a.Emit(vt.Instr{Op: vt.MovRI, RD: 1, Imm: 0}) // sum
			a.Emit(vt.Instr{Op: vt.MovRI, RD: 2, Imm: 1}) // i
			a.Bind(loop)
			a.Emit(vt.Instr{Op: vt.BrCC, Cond: vt.CondSGT, RA: 2, RB: 0, Target: int32(done)})
			mov3(a, vt.Add, 1, 1, 2)
			a.Emit(vt.Instr{Op: vt.AddI, RD: 2, RA: 2, Imm: 1})
			a.Emit(vt.Instr{Op: vt.Br, Target: int32(loop)})
			a.Bind(done)
			a.Emit(vt.Instr{Op: vt.MovRR, RD: 0, RA: 1})
			a.Emit(vt.Instr{Op: vt.Ret})
		})
		m := New(Config{Arch: arch})
		res, err := m.Call(mod, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != 5050 {
			t.Errorf("sum(100) = %d, want 5050", res[0])
		}
		if m.Executed == 0 {
			t.Error("no instructions counted")
		}
	})
}

func TestMemoryOps(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		mod := assemble(t, arch, func(a vt.Assembler) {
			// r0 = address; store 64-bit, reload halves.
			a.Emit(vt.Instr{Op: vt.MovRI, RD: 1, Imm: 0x1122334455667788})
			a.Emit(vt.Instr{Op: vt.Store64, RA: 0, RB: 1, Imm: 0})
			a.Emit(vt.Instr{Op: vt.Load32, RD: 2, RA: 0, Imm: 0})
			a.Emit(vt.Instr{Op: vt.Load32S, RD: 3, RA: 0, Imm: 4})
			a.Emit(vt.Instr{Op: vt.Load16, RD: 4, RA: 0, Imm: 6})
			a.Emit(vt.Instr{Op: vt.Load8, RD: 5, RA: 0, Imm: 7})
			a.Emit(vt.Instr{Op: vt.MovRR, RD: 0, RA: 2})
			mov3(a, vt.Add, 0, 0, 3)
			mov3(a, vt.Add, 0, 0, 4)
			mov3(a, vt.Add, 0, 0, 5)
			a.Emit(vt.Instr{Op: vt.Ret})
		})
		m := New(Config{Arch: arch})
		addr := m.Alloc(16)
		res, err := m.Call(mod, 0, addr)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(0x55667788) + uint64(0x11223344) + 0x1122 + 0x11
		if res[0] != want {
			t.Errorf("got %#x want %#x", res[0], want)
		}
	})
}

func TestCallAndCalleeSave(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		tg := vt.ForArch(arch)
		cs := tg.CalleeSaved[0]
		sp := tg.SP
		// Callee: clobbers cs but saves/restores it on the stack; returns
		// arg*2 in r0.
		mod := assemble(t, arch, func(a vt.Assembler) {
			entry2 := a.NewLabel()
			// main: r0 = arg. Save 41 into callee-saved, call, add.
			a.Emit(vt.Instr{Op: vt.MovRI, RD: cs, Imm: 41})
			calleeAt := a.NewLabel()
			_ = calleeAt
			// call callee
			a.Emit(vt.Instr{Op: vt.BrCC, Cond: vt.CondNE, RA: 0, RB: 0, Target: int32(entry2)}) // never taken
			callPos := a.PCOffset()
			_ = callPos
			// We need the callee offset; emit call with fixup via symbol
			// mechanism: emit placeholder and patch manually after Finish
			// is overkill here, so lay out callee first in a second pass.
			a.Emit(vt.Instr{Op: vt.Nop})
			a.Bind(entry2)
			a.Emit(vt.Instr{Op: vt.Ret})
		})
		_ = mod
		_ = sp
		// The direct-call path is exercised through EmitCallSym + manual
		// patching below.
		a := vt.NewAssembler(arch)
		// main at 0: call callee(sym 0), then r0 = r0 + cs.
		a.Emit(vt.Instr{Op: vt.MovRI, RD: cs, Imm: 41})
		a.EmitCallSym(0)
		mov3(a, vt.Add, 0, 0, cs)
		a.Emit(vt.Instr{Op: vt.Ret})
		calleeOff := a.PCOffset()
		// callee: push cs, clobber it, pop, return arg*2.
		a.Emit(vt.Instr{Op: vt.SubI, RD: sp, RA: sp, Imm: 16})
		a.Emit(vt.Instr{Op: vt.Store64, RA: sp, RB: cs, Imm: 0})
		a.Emit(vt.Instr{Op: vt.MovRI, RD: cs, Imm: 999})
		mov3(a, vt.Add, 0, 0, 0)
		a.Emit(vt.Instr{Op: vt.Load64, RD: cs, RA: sp, Imm: 0})
		a.Emit(vt.Instr{Op: vt.AddI, RD: sp, RA: sp, Imm: 16})
		a.Emit(vt.Instr{Op: vt.Ret})
		code, relocs, err := a.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range relocs {
			r.Patch(code, int64(calleeOff))
		}
		m2, err := Load(arch, code)
		if err != nil {
			t.Fatal(err)
		}
		mach := New(Config{Arch: arch})
		res, err := mach.Call(m2, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != 61 { // 10*2 + 41
			t.Errorf("got %d want 61", res[0])
		}
	})
}

func TestRuntimeCall(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		tg := vt.ForArch(arch)
		mod := assemble(t, arch, func(a vt.Assembler) {
			a.Emit(vt.Instr{Op: vt.CallRT, Imm: 1})
			a.Emit(vt.Instr{Op: vt.AddI, RD: tg.IntRet[0], RA: tg.IntRet[0], Imm: 1})
			a.Emit(vt.Instr{Op: vt.Ret})
		})
		m := New(Config{Arch: arch})
		m.RT = make([]RTFunc, 2)
		m.RT[1] = func(m *Machine) error {
			m.R[tg.IntRet[0]] = m.R[tg.IntArgs[0]] * 3
			return nil
		}
		res, err := m.Call(mod, 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != 22 {
			t.Errorf("got %d want 22", res[0])
		}
	})
}

func TestTraps(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		mod := assemble(t, arch, func(a vt.Assembler) {
			a.Emit(vt.Instr{Op: vt.Trap, Imm: int64(vt.TrapOverflow)})
		})
		m := New(Config{Arch: arch})
		_, err := m.Call(mod, 0)
		tr, ok := err.(*Trap)
		if !ok {
			t.Fatalf("expected trap, got %v", err)
		}
		if tr.Code != vt.TrapOverflow {
			t.Errorf("code = %v", tr.Code)
		}
	})
}

func TestDivZeroTrap(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		mod := assemble(t, arch, func(a vt.Assembler) {
			mov3(a, vt.SDiv, 0, 0, 1)
			a.Emit(vt.Instr{Op: vt.Ret})
		})
		m := New(Config{Arch: arch})
		if _, err := m.Call(mod, 0, 5, 0); err == nil {
			t.Fatal("expected divide-by-zero trap")
		}
		if _, err := m.Call(mod, 0, 10, 2); err != nil {
			t.Fatal(err)
		}
		if m.R[0] != 5 {
			t.Errorf("10/2 = %d", m.R[0])
		}
	})
}

func TestNullAndOOBTrap(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		mod := assemble(t, arch, func(a vt.Assembler) {
			a.Emit(vt.Instr{Op: vt.Load64, RD: 0, RA: 0, Imm: 0})
			a.Emit(vt.Instr{Op: vt.Ret})
		})
		m := New(Config{Arch: arch})
		if _, err := m.Call(mod, 0, 0); err == nil {
			t.Error("expected null trap")
		}
		if _, err := m.Call(mod, 0, uint64(len(m.Mem))+8); err == nil {
			t.Error("expected OOB trap")
		}
	})
}

func TestUnwindSymbolization(t *testing.T) {
	mod := assemble(t, vt.VX64, func(a vt.Assembler) {
		a.Emit(vt.Instr{Op: vt.Nop})
		a.Emit(vt.Instr{Op: vt.Trap, Imm: int64(vt.TrapOverflow)})
	})
	mod.RegisterUnwind([]UnwindRange{{Start: 0, End: 100, Name: "pipeline_1", CFI: []byte{1}}})
	m := New(Config{Arch: vt.VX64})
	_, err := m.Call(mod, 0)
	tr, ok := err.(*Trap)
	if !ok {
		t.Fatal("expected trap")
	}
	if len(tr.Frames) == 0 || tr.Frames[0] != "pipeline_1+1" {
		t.Errorf("frames = %v", tr.Frames)
	}
}

func TestMulWideSigned(t *testing.T) {
	mod := assemble(t, vt.VX64, func(a vt.Assembler) {
		a.Emit(vt.Instr{Op: vt.MulWideS, RD: 0, RC: 1, RA: 0, RB: 1})
		a.Emit(vt.Instr{Op: vt.Ret})
	})
	m := New(Config{Arch: vt.VX64})
	f := func(x, y int64) bool {
		_, err := m.Call(mod, 0, uint64(x), uint64(y))
		if err != nil {
			return false
		}
		lo, hi := m.R[0], m.R[1]
		// Reference via big arithmetic on 128 bits.
		wantHi, wantLo := mulS128(x, y)
		return lo == wantLo && hi == wantHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func mulS128(x, y int64) (hi, lo uint64) {
	// Signed 128-bit product via unsigned plus corrections.
	uhi, ulo := mulU128(uint64(x), uint64(y))
	if x < 0 {
		uhi -= uint64(y)
	}
	if y < 0 {
		uhi -= uint64(x)
	}
	return uhi, ulo
}

func mulU128(x, y uint64) (hi, lo uint64) {
	x0, x1 := x&0xFFFFFFFF, x>>32
	y0, y1 := y&0xFFFFFFFF, y>>32
	w0 := x0 * y0
	tmp := x1*y0 + w0>>32
	w1 := tmp & 0xFFFFFFFF
	w2 := tmp >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

func TestFloatOps(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		mod := assemble(t, arch, func(a vt.Assembler) {
			a.Emit(vt.Instr{Op: vt.MovFR, RD: 0, RA: 0}) // f0 = bits(r0)
			a.Emit(vt.Instr{Op: vt.MovFR, RD: 1, RA: 1})
			if a.Target().TwoAddress {
				a.Emit(vt.Instr{Op: vt.FAdd, RD: 0, RA: 0, RB: 1})
			} else {
				a.Emit(vt.Instr{Op: vt.FAdd, RD: 0, RA: 0, RB: 1})
			}
			a.Emit(vt.Instr{Op: vt.CvtF2SI, RD: 0, RA: 0})
			a.Emit(vt.Instr{Op: vt.Ret})
		})
		m := New(Config{Arch: arch})
		res, err := m.Call(mod, 0, math.Float64bits(1.5), math.Float64bits(2.25))
		if err != nil {
			t.Fatal(err)
		}
		if int64(res[0]) != 3 {
			t.Errorf("1.5+2.25 truncated = %d", int64(res[0]))
		}
	})
}

func TestCrc32Deterministic(t *testing.T) {
	mod := assemble(t, vt.VX64, func(a vt.Assembler) {
		a.Emit(vt.Instr{Op: vt.Crc32, RD: 0, RA: 0, RB: 1})
		a.Emit(vt.Instr{Op: vt.Ret})
	})
	m := New(Config{Arch: vt.VX64})
	r1, err := m.Call(mod, 0, 0, 0xDEADBEEF)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Call(mod, 0, 0, 0xDEADBEEF)
	if err != nil {
		t.Fatal(err)
	}
	if r1[0] != r2[0] {
		t.Error("crc32 not deterministic")
	}
	r3, _ := m.Call(mod, 0, 1, 0xDEADBEEF)
	if r3[0] == r1[0] {
		t.Error("crc32 ignores seed")
	}
}

func TestAllocAlignmentAndReset(t *testing.T) {
	m := New(Config{Arch: vt.VX64, MemSize: 8 << 20})
	a := m.Alloc(3)
	b := m.Alloc(5)
	if a%8 != 0 || b%8 != 0 {
		t.Errorf("unaligned: %d %d", a, b)
	}
	if b <= a {
		t.Error("allocator not monotonic")
	}
	used := m.HeapUsed()
	if used == 0 {
		t.Error("no heap used")
	}
	m.ResetHeap()
	if m.HeapUsed() != 0 {
		t.Error("reset did not clear heap")
	}
	c := m.Alloc(8)
	if c != a {
		t.Errorf("post-reset alloc %d != first alloc %d", c, a)
	}
}

// TestAllocExhaustionTraps: a runtime function that exhausts the heap — of the
// main machine or of a worker's arena — ends the Call with a TrapOOM at the
// CallRT that made it, on the fused and the unfused view, leaves the heap
// where it was, and outside a Call is an error for a deferred CatchOOM.
func TestAllocExhaustionTraps(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		for _, fuse := range []bool{true, false} {
			mod := assemble(t, arch, func(a vt.Assembler) {
				a.Emit(vt.Instr{Op: vt.Nop})
				a.Emit(vt.Instr{Op: vt.CallRT, Imm: 0})
				a.Emit(vt.Instr{Op: vt.Ret})
			})
			mod.SetFuse(fuse)
			mod.RegisterUnwind([]UnwindRange{{Start: 0, End: int32(len(mod.Code)), Name: "f"}})
			base := New(Config{Arch: arch, MemSize: 8 << 20})
			arena := base.Alloc(2 << 20)
			for name, m := range map[string]*Machine{"main": base, "worker": NewWorker(base, arena, arena+2<<20)} {
				m.RT = []RTFunc{func(m *Machine) error { m.Alloc(8 << 20); return nil }}
				mark := m.HeapMark()
				_, err := m.Call(mod, 0)
				tr, ok := err.(*Trap)
				if !ok || tr.Code != vt.TrapOOM || tr.PC != mod.Prog.Offsets[1] || len(tr.Frames) != 1 || tr.Frames[0] != fmt.Sprintf("f+%d", tr.PC) {
					t.Errorf("%s fuse=%v: %v (%+v), want an oom trap at the CallRT", name, fuse, err, tr)
				}
				if m.HeapMark() != mark {
					t.Errorf("%s fuse=%v: heap moved from %d to %d", name, fuse, mark, m.HeapMark())
				}
				err = func() (err error) {
					defer CatchOOM(&err)
					m.Alloc(8 << 20)
					return nil
				}()
				if tr, ok := err.(*Trap); !ok || tr.Code != vt.TrapOOM {
					t.Errorf("%s: Alloc outside a call: %v", name, err)
				}
			}
		}
	})
}
