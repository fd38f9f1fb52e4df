package vm

import (
	"testing"

	"qcc/internal/vt"
)

// FuzzLoadFuse feeds arbitrary bytes through the whole load path — vt.Decode,
// Load's branch resolution, fuse and unfuse — on either target. Whatever
// decodes must build, without panicking, a fused and an unfused view that
// pass the structural verifier, the unfused one of checked singles only with
// micro-op k at instruction k; whatever does not decode must be refused with
// an error. Seeds: the fusion
// shapes of fuse_test.go (guarded loop, compare-and-branch, immediate folds,
// checked accesses beside simple ops, call with continuation) plus the committed
// corpus under testdata/fuzz/FuzzLoadFuse.
//
//	go test ./internal/vm -run '^$' -fuzz FuzzLoadFuse -fuzztime 10s
func FuzzLoadFuse(f *testing.F) {
	for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
		for _, seed := range fuzzSeeds(arch) {
			f.Add(arch == vt.VA64, seed)
		}
	}
	f.Fuzz(func(t *testing.T, va64 bool, code []byte) {
		arch := vt.VX64
		if va64 {
			arch = vt.VA64
		}
		mod, err := Load(arch, code)
		if err != nil {
			return
		}
		if err := fuse(mod).check(); err != nil {
			t.Fatalf("%s\n%s", err, vt.DisasmAll(mod.Prog))
		}
		u := unfuse(mod)
		if err := u.check(); err != nil {
			t.Fatalf("unfused: %s\n%s", err, vt.DisasmAll(mod.Prog))
		}
		for k := range mod.Prog.Instrs {
			if op := u.ins[k].op; op >= uLoad8 || vt.Op(op).UncheckedMem() || u.o2f[k] != int32(k) {
				t.Fatalf("unfused: instruction %d (%s) is micro-op %d, op %d\n%s", k, mod.Prog.Instrs[k].Op, u.o2f[k], op, vt.DisasmAll(mod.Prog))
			}
		}
	})
}

func fuzzSeeds(arch vt.Arch) [][]byte {
	asm := func(f func(a vt.Assembler)) []byte {
		a := vt.NewAssembler(arch)
		f(a)
		code, _, err := a.Finish()
		if err != nil {
			panic(err)
		}
		return code
	}
	return [][]byte{
		asm(func(a vt.Assembler) { // guarded loop that reloads what it just stored
			loop, done := a.NewLabel(), a.NewLabel()
			a.Emit(vt.Instr{Op: vt.MovRI, RD: 1, Imm: nullGuard})
			a.Emit(vt.Instr{Op: vt.MovRI, RD: 3, Imm: 64})
			a.Bind(loop)
			a.Emit(vt.Instr{Op: vt.BrCC, Cond: vt.CondSGE, RA: 2, RB: 3, Target: int32(done)})
			a.Emit(vt.Instr{Op: vt.Store64, RA: 1, RB: 2, Imm: 0})
			a.Emit(vt.Instr{Op: vt.Load64, RD: 4, RA: 1, Imm: 0})
			a.Emit(vt.Instr{Op: vt.Load32, RD: 5, RA: 1, Imm: 8})
			a.Emit(vt.Instr{Op: vt.AddI, RD: 1, RA: 1, Imm: 8})
			a.Emit(vt.Instr{Op: vt.AddI, RD: 2, RA: 2, Imm: 1})
			a.Emit(vt.Instr{Op: vt.Br, Target: int32(loop)})
			a.Bind(done)
			a.Emit(vt.Instr{Op: vt.Ret})
		}),
		asm(func(a vt.Assembler) { // compare-and-branch, checked accesses, a call and its continuation
			skip := a.NewLabel()
			a.Emit(vt.Instr{Op: vt.LoadU64, RD: 0, RA: 1, Imm: 16}) // callee at offset 0
			a.Emit(vt.Instr{Op: vt.Ret})
			a.Emit(vt.Instr{Op: vt.SetCC, Cond: vt.CondULT, RD: 2, RA: 0, RB: 1})
			a.Emit(vt.Instr{Op: vt.BrNZ, RA: 2, Target: int32(skip)})
			a.Emit(vt.Instr{Op: vt.Load64, RD: 2, RA: 1, Imm: 0})
			a.Emit(vt.Instr{Op: vt.AddI, RD: 2, RA: 2, Imm: 3})
			a.Bind(skip)
			a.Emit(vt.Instr{Op: vt.Lea, RD: 3, RA: 0, Imm: 7})
			a.Emit(vt.Instr{Op: vt.Store64, RA: 1, RB: 3, Imm: 0})
			a.Emit(vt.Instr{Op: vt.Call, Imm: 0})
			a.Emit(vt.Instr{Op: vt.TrapNZ, RA: 0, Imm: int64(vt.TrapOverflow)})
			a.Emit(vt.Instr{Op: vt.Ret})
		}),
		asm(func(a vt.Assembler) { // several guard ranges, derived bases, address chains
			a.Emit(vt.Instr{Op: vt.MovRR, RD: 4, RA: 1})
			a.Emit(vt.Instr{Op: vt.Lea, RD: 5, RA: 2, Imm: 24})
			a.Emit(vt.Instr{Op: vt.Load64, RD: 6, RA: 4, Imm: 0})
			a.Emit(vt.Instr{Op: vt.Load16S, RD: 7, RA: 5, Imm: -8})
			a.Emit(vt.Instr{Op: vt.Store8, RA: 1, RB: 6, Imm: 40})
			a.Emit(vt.Instr{Op: vt.Store32, RA: 2, RB: 7, Imm: 4})
			a.Emit(vt.Instr{Op: vt.AddI, RD: 1, RA: 1, Imm: 8})
			a.Emit(vt.Instr{Op: vt.SubI, RD: 1, RA: 1, Imm: 3})
			a.Emit(vt.Instr{Op: vt.CallInd, RA: 6})
			a.Emit(vt.Instr{Op: vt.Ret})
		}),
	}
}
