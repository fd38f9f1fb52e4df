package mcv

import (
	"strings"
	"testing"

	"qcc/internal/vm"
	"qcc/internal/vt"
)

// remat defines vreg v in dst out of thin air (the checker treats remats as
// constant recomputations), giving tests a way to establish known state.
func remat(v int32, dst Loc) Inst {
	return Inst{Kind: KindRemat, Move: Move{SrcV: -1, DstV: v, Src: LocNone, Dst: dst}}
}

func oneBlock(insts ...Inst) *Func {
	return &Func{
		Name:     "f",
		Blocks:   []Block{{Insts: insts}},
		Target:   vt.ForArch(vt.VX64),
		NumSlots: 4,
	}
}

func wantDiag(t *testing.T, diags []Diag, block int32, inst int, substr string) {
	t.Helper()
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Block != block || d.Inst != inst {
		t.Errorf("diagnostic at b%d/%d, want b%d/%d", d.Block, d.Inst, block, inst)
	}
	if !strings.Contains(d.Msg, substr) {
		t.Errorf("diagnostic %q does not mention %q", d.Msg, substr)
	}
}

// TestCheckWrongUseRegister: an instruction reads its operand from a register
// the allocator never put the vreg in.
func TestCheckWrongUseRegister(t *testing.T) {
	f := oneBlock(
		remat(1, GPR(1)),
		Inst{Kind: KindNormal, Op: vt.Add, Ops: []Operand{{V: 1, Loc: GPR(2)}}},
	)
	wantDiag(t, CheckFunc(f), 0, 1, "use of v1 reads r2")
}

// TestCheckDroppedReload: a vreg is spilled, a call clobbers its register,
// and a later use reads the register without a reload. Inserting the reload
// makes the same function clean.
func TestCheckDroppedReload(t *testing.T) {
	spill := Inst{Kind: KindSpill, Move: Move{SrcV: 1, DstV: 1, Src: GPR(1), Dst: Slot(0)}}
	call := Inst{Kind: KindNormal, Op: vt.Call, Call: true}
	reload := Inst{Kind: KindReload, Move: Move{SrcV: 1, DstV: 1, Src: Slot(0), Dst: GPR(1)}}
	use := Inst{Kind: KindNormal, Op: vt.Add, Ops: []Operand{{V: 1, Loc: GPR(1)}}}

	f := oneBlock(remat(1, GPR(1)), spill, call, use)
	wantDiag(t, CheckFunc(f), 0, 3, "use of v1 reads r1")

	f = oneBlock(remat(1, GPR(1)), spill, call, reload, use)
	if diags := CheckFunc(f); len(diags) != 0 {
		t.Errorf("reload-present variant should be clean, got %v", diags)
	}
}

// TestCheckUnsavedCalleeSaved: a def lands in a callee-saved register the
// prologue does not preserve.
func TestCheckUnsavedCalleeSaved(t *testing.T) {
	f := oneBlock(
		Inst{Kind: KindNormal, Op: vt.MovRI, Ops: []Operand{{V: 1, Loc: GPR(10), Def: true}}},
	)
	wantDiag(t, CheckFunc(f), 0, 0, "writes callee-saved r10")

	f.Saved = []uint8{10}
	if diags := CheckFunc(f); len(diags) != 0 {
		t.Errorf("saved variant should be clean, got %v", diags)
	}
}

// TestCheckOutOfRangeSlot: a spill targets a slot beyond the frame.
func TestCheckOutOfRangeSlot(t *testing.T) {
	f := oneBlock(
		remat(1, GPR(1)),
		Inst{Kind: KindSpill, Move: Move{SrcV: 1, DstV: 1, Src: GPR(1), Dst: Slot(9)}},
	)
	wantDiag(t, CheckFunc(f), 0, 1, "out-of-range spill slot 9")
}

// lintProg assembles a tiny vx64 function (movi; addi; br back; ret) and
// returns its decoded program plus function table.
func lintProg(t *testing.T) (*vt.Program, []vm.UnwindRange) {
	t.Helper()
	a := vt.NewAssembler(vt.VX64)
	l := a.NewLabel()
	a.Emit(vt.Instr{Op: vt.MovRI, RD: 1, Imm: 7})
	a.Bind(l)
	a.Emit(vt.Instr{Op: vt.AddI, RD: 1, RA: 1, Imm: 1})
	a.Emit(vt.Instr{Op: vt.Br, Target: int32(l)})
	a.Emit(vt.Instr{Op: vt.Ret})
	code, relocs, err := a.Finish()
	if err != nil || len(relocs) != 0 {
		t.Fatalf("assemble: err=%v relocs=%d", err, len(relocs))
	}
	prog, err := vt.Decode(vt.VX64, code)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return prog, []vm.UnwindRange{{Start: 0, End: int32(len(code)), Name: "f"}}
}

// TestLintBadBranchOffset: a branch whose target is inside the function but
// not on an instruction boundary, and one pointing outside the function.
func TestLintBadBranchOffset(t *testing.T) {
	prog, funcs := lintProg(t)
	if diags := Lint(prog, funcs, 0); len(diags) != 0 {
		t.Fatalf("pristine program should lint clean, got %v", diags)
	}

	br := -1
	for k := range prog.Instrs {
		if prog.Instrs[k].Op == vt.Br {
			br = k
		}
	}
	if br < 0 {
		t.Fatal("no Br instruction in test program")
	}

	prog.Instrs[br].Target = 1 // mid-instruction: movi is several bytes long
	diags := Lint(prog, funcs, 0)
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "not an instruction boundary") {
		t.Errorf("mid-instruction target: got %v", diags)
	}
	if len(diags) == 1 && diags[0].Off != prog.Offsets[br] {
		t.Errorf("diagnostic at offset %d, want branch offset %d", diags[0].Off, prog.Offsets[br])
	}

	prog.Instrs[br].Target = funcs[0].End + 8
	diags = Lint(prog, funcs, 0)
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "outside function") {
		t.Errorf("out-of-function target: got %v", diags)
	}
}

// TestLintBadRuntimeCallIndex: a CallRT index past the runtime table.
func TestLintBadRuntimeCallIndex(t *testing.T) {
	a := vt.NewAssembler(vt.VX64)
	a.Emit(vt.Instr{Op: vt.CallRT, Imm: 5})
	a.Emit(vt.Instr{Op: vt.Ret})
	code, _, err := a.Finish()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	prog, err := vt.Decode(vt.VX64, code)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	funcs := []vm.UnwindRange{{Start: 0, End: int32(len(code)), Name: "f"}}
	diags := Lint(prog, funcs, 3)
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "out of range") {
		t.Errorf("bad runtime-call index: got %v", diags)
	}
}

// TestLintStackAccessOutsideFrame: an SP-relative access at the frame's end
// is flagged whether its check is in place or was eliminated, and the last
// in-frame slot is not.
func TestLintStackAccessOutsideFrame(t *testing.T) {
	const frame = 32
	for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
		sp := vt.ForArch(arch).SP
		for _, op := range []vt.Op{vt.Store64, vt.StoreU64, vt.Load32, vt.LoadU32S, vt.FLoadU, vt.FStoreU} {
			lint := func(disp int64) []Diag {
				a := vt.NewAssembler(arch)
				a.Emit(vt.Instr{Op: vt.SubI, RD: sp, RA: sp, Imm: frame})
				if _, store, _ := op.MemRef(); store {
					a.Emit(vt.Instr{Op: op, RA: sp, RB: 1, Imm: disp})
				} else {
					a.Emit(vt.Instr{Op: op, RD: 1, RA: sp, Imm: disp})
				}
				a.Emit(vt.Instr{Op: vt.AddI, RD: sp, RA: sp, Imm: frame})
				a.Emit(vt.Instr{Op: vt.Ret})
				code, _, err := a.Finish()
				if err != nil {
					t.Fatalf("assemble: %v", err)
				}
				prog, err := vt.Decode(arch, code)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				return Lint(prog, []vm.UnwindRange{{Start: 0, End: int32(len(code)), Name: "f"}}, 0)
			}
			size, _, _ := op.MemRef()
			if diags := lint(frame - int64(size)); len(diags) != 0 {
				t.Errorf("%v %s [sp+%d]: in-frame access flagged: %v", arch, op, frame-int64(size), diags)
			}
			if diags := lint(frame); len(diags) != 1 || !strings.Contains(diags[0].Msg, "outside frame") {
				t.Errorf("%v %s [sp+%d]: want one outside-frame finding, got %v", arch, op, frame, diags)
			}
		}
	}
}
