package vm

import (
	"reflect"
	"testing"

	"qcc/internal/vt"
)

// counters is the architecture-neutral profile both engines must agree on.
type counters struct {
	Executed, Branches, MemOps int64
}

// runEngines executes the same code fused and unfused on fresh machines and
// requires identical results, errors (including trap PC, frames, code and
// message), and Executed/Branches/MemOps. It returns the fused machine's
// outcome for further assertions.
func runEngines(t *testing.T, arch vt.Arch, code []byte, args ...uint64) ([2]uint64, error, counters) {
	t.Helper()
	return runEnginesMem(t, arch, 0, code, args...)
}

func runEnginesMem(t *testing.T, arch vt.Arch, memSize int, code []byte, args ...uint64) ([2]uint64, error, counters) {
	t.Helper()
	type outcome struct {
		res [2]uint64
		err error
		c   counters
	}
	run := func(fuse bool) outcome {
		mod, err := Load(arch, code)
		if err != nil {
			t.Fatal(err)
		}
		mod.SetFuse(fuse)
		m := New(Config{Arch: arch, MemSize: memSize})
		res, err := m.Call(mod, 0, args...)
		return outcome{res, err, counters{m.Executed, m.Branches, m.MemOps}}
	}
	fused, unfused := run(true), run(false)
	if fused.res != unfused.res {
		t.Errorf("results differ: fused %v, unfused %v", fused.res, unfused.res)
	}
	if (fused.err == nil) != (unfused.err == nil) {
		t.Fatalf("error mismatch: fused %v, unfused %v", fused.err, unfused.err)
	}
	if fused.err != nil {
		ft, fok := fused.err.(*Trap)
		ut, uok := unfused.err.(*Trap)
		if fok != uok {
			t.Fatalf("trap-ness mismatch: fused %v, unfused %v", fused.err, unfused.err)
		}
		if fok && !reflect.DeepEqual(ft, ut) {
			t.Errorf("traps differ:\nfused   %+v\nunfused %+v", ft, ut)
		}
	}
	if fused.c != unfused.c {
		t.Errorf("counters differ: fused %+v, unfused %+v", fused.c, unfused.c)
	}
	return fused.res, fused.err, fused.c
}

func build(t *testing.T, arch vt.Arch, f func(a vt.Assembler)) []byte {
	t.Helper()
	a := vt.NewAssembler(arch)
	f(a)
	code, _, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// hasMicroOp reports whether the module's fused view contains a micro-op
// with the given opcode, guarding fusion tests against silently degrading
// into unfused singles.
func hasMicroOp(t *testing.T, arch vt.Arch, code []byte, op uint8) bool {
	t.Helper()
	mod, err := Load(arch, code)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mod.fused().ins {
		if mod.fused().ins[i].op == op {
			return true
		}
	}
	return false
}

// TestLoadAddrWraparound is the regression test for the address-overflow
// hole in the bounds check: a base+displacement that wraps past the length
// test must raise a clean TrapOOB, not a Go index panic. Exercised on both
// engines via runEngines.
func TestLoadAddrWraparound(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		code := build(t, arch, func(a vt.Assembler) {
			a.Emit(vt.Instr{Op: vt.MovRI, RD: 1, Imm: -8}) // 0xFFFFFFFFFFFFFFF8
			a.Emit(vt.Instr{Op: vt.Load64, RD: 0, RA: 1, Imm: 0})
			a.Emit(vt.Instr{Op: vt.Ret})
		})
		_, err, c := runEngines(t, arch, code)
		tr, ok := err.(*Trap)
		if !ok {
			t.Fatalf("want TrapOOB, got %v", err)
		}
		if tr.Code != vt.TrapOOB {
			t.Errorf("trap code = %v, want oob", tr.Code)
		}
		if c.MemOps != 1 {
			t.Errorf("MemOps = %d, want 1 (failed access still counts)", c.MemOps)
		}
	})
}

// TestStoreWraparound covers the store direction of the same hole.
func TestStoreWraparound(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		code := build(t, arch, func(a vt.Assembler) {
			a.Emit(vt.Instr{Op: vt.MovRI, RD: 1, Imm: -4})
			a.Emit(vt.Instr{Op: vt.Store64, RA: 1, RB: 0, Imm: 0})
			a.Emit(vt.Instr{Op: vt.Ret})
		})
		_, err, _ := runEngines(t, arch, code)
		if tr, ok := err.(*Trap); !ok || tr.Code != vt.TrapOOB {
			t.Fatalf("want TrapOOB, got %v", err)
		}
	})
}

// TestTrapAttributionOpStore: a checked store right after a simple op traps;
// the trap must carry the PC and frame of the store instruction, and both
// instructions count as executed.
func TestTrapAttributionOpStore(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		code := build(t, arch, func(a vt.Assembler) {
			a.Emit(vt.Instr{Op: vt.Lea, RD: 2, RA: 0, Imm: 7})     // 0
			a.Emit(vt.Instr{Op: vt.Store64, RA: 1, RB: 2, Imm: 0}) // 1: bad base
			a.Emit(vt.Instr{Op: vt.Ret})                           // 2
		})
		_, err, c := runEngines(t, arch, code, 5, 16) // r1=16: below nullGuard
		tr, ok := err.(*Trap)
		if !ok || tr.Code != vt.TrapOOB {
			t.Fatalf("want TrapOOB, got %v", err)
		}
		mod, _ := Load(arch, code)
		if want := mod.Prog.Offsets[1]; tr.PC != want {
			t.Errorf("trap PC = %d, want %d (the store instruction)", tr.PC, want)
		}
		if c.Executed != 2 {
			t.Errorf("Executed = %d, want 2 (AddI ran, Store trapped)", c.Executed)
		}
	})
}

// TestTrapAttributionLoadOp: a checked load ahead of a simple op traps; the
// follow-op must not count as executed and the PC is the load's.
func TestTrapAttributionLoadOp(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		code := build(t, arch, func(a vt.Assembler) {
			a.Emit(vt.Instr{Op: vt.Load64, RD: 2, RA: 1, Imm: 0}) // 0: bad base
			a.Emit(vt.Instr{Op: vt.AddI, RD: 2, RA: 2, Imm: 3})   // 1: follow-op
			a.Emit(vt.Instr{Op: vt.Ret})                          // 2
		})
		_, err, c := runEngines(t, arch, code, 0, 3) // r1=3: below nullGuard
		tr, ok := err.(*Trap)
		if !ok || tr.Code != vt.TrapOOB {
			t.Fatalf("want TrapOOB, got %v", err)
		}
		mod, _ := Load(arch, code)
		if want := mod.Prog.Offsets[0]; tr.PC != want {
			t.Errorf("trap PC = %d, want %d (the load instruction)", tr.PC, want)
		}
		if c.Executed != 1 {
			t.Errorf("Executed = %d, want 1 (follow-op never ran)", c.Executed)
		}
	})
}

// TestTrapAttributionGuardedBlock: a block whose bounds checks were hoisted
// into a guard traps through the checked clone with per-access attribution:
// the PC is the first faulting access, not the block entry, and the
// instructions before it still count.
func TestTrapAttributionGuardedBlock(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		code := build(t, arch, func(a vt.Assembler) {
			// Two accesses off r1 make the block guardable; r1 is placed so
			// the first access is valid and the second is out of bounds,
			// which also fails the hoisted guard.
			a.Emit(vt.Instr{Op: vt.Load64, RD: 2, RA: 1, Imm: 0}) // 0: ok
			a.Emit(vt.Instr{Op: vt.Load64, RD: 3, RA: 1, Imm: 8}) // 1: oob
			a.Emit(vt.Instr{Op: vt.Ret})                          // 2
		})
		if !hasMicroOp(t, arch, code, xGuard1) {
			t.Fatal("block guard was not hoisted")
		}
		const memSize = 4 << 20
		_, err, c := runEnginesMem(t, arch, memSize, code, 0, memSize-8)
		tr, ok := err.(*Trap)
		if !ok || tr.Code != vt.TrapOOB {
			t.Fatalf("want TrapOOB, got %v", err)
		}
		mod, _ := Load(arch, code)
		if want := mod.Prog.Offsets[1]; tr.PC != want {
			t.Errorf("trap PC = %d, want %d (second access)", tr.PC, want)
		}
		if c.Executed != 2 || c.MemOps != 2 {
			t.Errorf("counters = %+v, want Executed 2, MemOps 2", c)
		}
	})
}

// TestCmpBranchFusionCounters: a compare feeding BrNZ takes one dispatch —
// SetCC+BrNZ as one xCmpBr micro-op, FCmp+BrNZ as the last step and the
// branch of one run — that still charges every instruction, one branch, and
// writes the 0/1 result.
func TestCmpBranchFusionCounters(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		for _, float := range []bool{false, true} {
			code := build(t, arch, func(a vt.Assembler) {
				done := a.NewLabel()
				if float {
					a.Emit(vt.Instr{Op: vt.CvtSI2F, RD: 0, RA: 0})
					a.Emit(vt.Instr{Op: vt.CvtSI2F, RD: 1, RA: 1})
					a.Emit(vt.Instr{Op: vt.FCmp, Cond: vt.CondSLT, RD: 2, RA: 0, RB: 1})
				} else {
					a.Emit(vt.Instr{Op: vt.SetCC, Cond: vt.CondULT, RD: 2, RA: 0, RB: 1})
				}
				a.Emit(vt.Instr{Op: vt.BrNZ, RA: 2, Target: int32(done)})
				a.Emit(vt.Instr{Op: vt.MovRI, RD: 2, Imm: 99})
				a.Bind(done)
				a.Emit(vt.Instr{Op: vt.MovRR, RD: 0, RA: 2})
				a.Emit(vt.Instr{Op: vt.Ret})
			})
			if want := map[bool]uint8{false: xCmpBr, true: xRunBrNZ}[float]; !hasMicroOp(t, arch, code, want) {
				t.Fatalf("float=%v: compare-and-branch did not fuse into micro-op %d", float, want)
			}
			res, _, c := runEngines(t, arch, code, 1, 2) // 1 < 2: taken
			if res[0] != 1 {
				t.Errorf("float=%v: result = %d, want 1 (the compare's result must be written)", float, res[0])
			}
			if c.Branches != 1 {
				t.Errorf("float=%v: Branches = %d, want 1", float, c.Branches)
			}
			runEngines(t, arch, code, 2, 1) // not taken
		}
	})
}

// TestCallRTNestedTrapPC: a trap raised inside generated code that was
// re-entered through CallAt from a runtime function must keep its innermost
// PC and frames when it propagates back through the CallRT instruction.
func TestCallRTNestedTrapPC(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		for _, fuse := range []bool{true, false} {
			code := build(t, arch, func(a vt.Assembler) {
				a.Emit(vt.Instr{Op: vt.CallRT, Imm: 0})                    // 0: re-enters aux below
				a.Emit(vt.Instr{Op: vt.Ret})                               // 1
				a.Emit(vt.Instr{Op: vt.Trap, Imm: int64(vt.TrapOverflow)}) // 2: aux
			})
			mod, err := Load(arch, code)
			if err != nil {
				t.Fatal(err)
			}
			mod.SetFuse(fuse)
			auxOff := mod.Prog.Offsets[2]
			m := New(Config{Arch: arch})
			m.RT = []RTFunc{func(m *Machine) error {
				_, err := m.CallAt(uint64(auxOff))
				return err
			}}
			_, err = m.Call(mod, 0)
			tr, ok := err.(*Trap)
			if !ok || tr.Code != vt.TrapOverflow {
				t.Fatalf("fuse=%v: want overflow trap, got %v", fuse, err)
			}
			if tr.PC != auxOff {
				t.Errorf("fuse=%v: trap PC = %d, want %d (the innermost trap site, not the CallRT)", fuse, tr.PC, auxOff)
			}
		}
	})
}

// TestFusionCompresses: a realistic loop must dispatch fewer micro-ops than
// instructions and agree with the unfused engine on a memory-heavy
// workload, including a trapping run off the end of memory.
func TestFusionCompresses(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		sweep := func(oob bool) []byte {
			return build(t, arch, func(a vt.Assembler) {
				loop := a.NewLabel()
				done := a.NewLabel()
				limit := int64(1 << 12)
				if oob {
					limit = 1 << 40
				}
				a.Emit(vt.Instr{Op: vt.MovRI, RD: 1, Imm: int64(nullGuard)})
				a.Emit(vt.Instr{Op: vt.MovRI, RD: 2, Imm: 0})
				a.Emit(vt.Instr{Op: vt.MovRI, RD: 3, Imm: limit})
				a.Bind(loop)
				a.Emit(vt.Instr{Op: vt.BrCC, Cond: vt.CondSGE, RA: 2, RB: 3, Target: int32(done)})
				a.Emit(vt.Instr{Op: vt.Store64, RA: 1, RB: 2, Imm: 0})
				a.Emit(vt.Instr{Op: vt.Load64, RD: 4, RA: 1, Imm: 0})
				mov3(a, vt.Add, 5, 5, 4)
				a.Emit(vt.Instr{Op: vt.AddI, RD: 1, RA: 1, Imm: 8})
				a.Emit(vt.Instr{Op: vt.AddI, RD: 2, RA: 2, Imm: 1})
				a.Emit(vt.Instr{Op: vt.Br, Target: int32(loop)})
				a.Bind(done)
				a.Emit(vt.Instr{Op: vt.MovRR, RD: 0, RA: 5})
				a.Emit(vt.Instr{Op: vt.Ret})
			})
		}
		code := sweep(false)
		runEngines(t, arch, code)
		mod, _ := Load(arch, code)
		st := mod.FuseStats()
		if st.MicroOps >= st.Instrs {
			t.Errorf("fusion rate %d/%d >= 1: nothing fused", st.MicroOps, st.Instrs)
		}
		if st.GuardedBlocks == 0 {
			t.Error("loop body should have a hoisted bounds guard")
		}
		// The OOB variant sweeps past the end of memory: the fused guard
		// must fail over to the checked clone and trap identically.
		_, err, _ := runEnginesMem(t, arch, 4<<20, sweep(true))
		if tr, ok := err.(*Trap); !ok || tr.Code != vt.TrapOOB {
			t.Fatalf("want TrapOOB, got %v", err)
		}
	})
}

// TestFoldImmediates: MovZ/MovK chains and AddI/Lea chains fold while
// keeping identical register state and counts.
func TestFoldImmediates(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		wantExec := int64(8)
		code := build(t, arch, func(a vt.Assembler) {
			if arch == vt.VA64 {
				// MovZ/MovK constant synthesis only exists on va64.
				a.Emit(vt.Instr{Op: vt.MovZ, RD: 1, Cond: 0, Imm: 0x1234})
				a.Emit(vt.Instr{Op: vt.MovK, RD: 1, Cond: 2, Imm: 0x5678})
				a.Emit(vt.Instr{Op: vt.MovK, RD: 1, Cond: 3, Imm: 0x9ABC})
			} else {
				a.Emit(vt.Instr{Op: vt.MovRI, RD: 1, Imm: -7296862222850977228}) // 0x9ABC_5678_0000_1234
				wantExec = 6
			}
			a.Emit(vt.Instr{Op: vt.Lea, RD: 2, RA: 1, Imm: 10})
			a.Emit(vt.Instr{Op: vt.AddI, RD: 2, RA: 2, Imm: -3})
			a.Emit(vt.Instr{Op: vt.SubI, RD: 2, RA: 2, Imm: 4})
			a.Emit(vt.Instr{Op: vt.MovRR, RD: 0, RA: 2})
			a.Emit(vt.Instr{Op: vt.Ret})
		})
		res, _, c := runEngines(t, arch, code)
		want := uint64(0x9ABC_5678_0000_1234) + 3
		if res[0] != want {
			t.Errorf("result = %#x, want %#x", res[0], want)
		}
		if c.Executed != wantExec {
			t.Errorf("Executed = %d, want %d (folds still charge each instruction)", c.Executed, wantExec)
		}
	})
}
