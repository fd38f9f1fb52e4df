package vt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// encodeOne encodes a single non-branch instruction and decodes it back.
func encodeOne(t *testing.T, arch Arch, in Instr) []Instr {
	t.Helper()
	a := NewAssembler(arch)
	a.Emit(in)
	code, _, err := a.Finish()
	if err != nil {
		t.Fatalf("encode %v: %v", in, err)
	}
	p, err := Decode(arch, code)
	if err != nil {
		t.Fatalf("decode %v: %v", in, err)
	}
	return p.Instrs
}

func TestRoundTripSimpleX64(t *testing.T) {
	cases := []Instr{
		{Op: Nop},
		{Op: Ret},
		{Op: MovRR, RD: 3, RA: 7},
		{Op: MovRI, RD: 5, Imm: -1},
		{Op: MovRI, RD: 5, Imm: 1 << 40},
		{Op: Add, RD: 2, RA: 2, RB: 9},
		{Op: AddI, RD: 4, RA: 4, Imm: 127},
		{Op: AddI, RD: 4, RA: 4, Imm: 128},
		{Op: AddI, RD: 4, RA: 4, Imm: -40000},
		{Op: Lea, RD: 4, RA: 7, Imm: 1 << 33},
		{Op: Load32, RD: 1, RA: 15, Imm: -8},
		{Op: Store64, RA: 15, RB: 3, Imm: 4096},
		{Op: SetCC, Cond: CondULE, RD: 1, RA: 2, RB: 3},
		{Op: MulWideU, RD: 1, RC: 2, RA: 3, RB: 4},
		{Op: Crc32, RD: 6, RA: 6, RB: 7},
		{Op: Trap, Imm: int64(TrapOverflow)},
		{Op: TrapNZ, RA: 9, Imm: int64(TrapDivZero)},
		{Op: CallRT, Imm: 513},
		{Op: CallInd, RA: 11},
		{Op: FAdd, RD: 3, RA: 3, RB: 4},
		{Op: FCmp, Cond: CondSLT, RD: 2, RA: 1, RB: 5},
		{Op: CvtSI2F, RD: 3, RA: 8},
		{Op: MovRF, RD: 4, RA: 9},
	}
	for _, c := range cases {
		got := encodeOne(t, VX64, c)
		if len(got) != 1 {
			t.Fatalf("%v: decoded %d instrs", c, len(got))
		}
		if got[0] != c {
			t.Errorf("roundtrip mismatch:\n in %+v\nout %+v", c, got[0])
		}
	}
}

func TestRoundTripSimpleA64(t *testing.T) {
	cases := []Instr{
		{Op: Nop},
		{Op: Ret},
		{Op: MovRR, RD: 25, RA: 31},
		{Op: Add, RD: 20, RA: 21, RB: 22},
		{Op: AddI, RD: 4, RA: 9, Imm: 2047},
		{Op: AddI, RD: 4, RA: 9, Imm: -2048},
		{Op: Load32, RD: 1, RA: 31, Imm: -8},
		{Op: Store64, RA: 31, RB: 3, Imm: 2000},
		{Op: SetCC, Cond: CondULE, RD: 1, RA: 2, RB: 3},
		{Op: MulWideU, RD: 1, RC: 2, RA: 3, RB: 4},
		{Op: Crc32, RD: 6, RA: 7, RB: 8},
		{Op: Trap, Imm: int64(TrapOverflow)},
		{Op: TrapNZ, RA: 9, Imm: int64(TrapDivZero)},
		{Op: CallRT, Imm: 513},
		{Op: CallInd, RA: 11},
		{Op: FAdd, RD: 3, RA: 1, RB: 4},
		{Op: FCmp, Cond: CondSLT, RD: 2, RA: 1, RB: 5},
	}
	for _, c := range cases {
		got := encodeOne(t, VA64, c)
		if len(got) != 1 {
			t.Fatalf("%v: decoded %d instrs", c, len(got))
		}
		if got[0] != c {
			t.Errorf("roundtrip mismatch:\n in %+v\nout %+v", c, got[0])
		}
	}
}

// TestMovRIExpansionA64 checks that constant synthesis reproduces arbitrary
// 64-bit values when the MovZ/MovK sequence is interpreted.
func TestMovRIExpansionA64(t *testing.T) {
	interp := func(instrs []Instr) uint64 {
		var r uint64
		for _, in := range instrs {
			sh := 16 * uint(in.Cond)
			switch in.Op {
			case MovZ:
				r = uint64(uint16(in.Imm)) << sh
			case MovK:
				r = r&^(uint64(0xFFFF)<<sh) | uint64(uint16(in.Imm))<<sh
			default:
				t.Fatalf("unexpected op %v", in.Op)
			}
		}
		return r
	}
	f := func(v int64) bool {
		a := NewAssembler(VA64)
		a.Emit(Instr{Op: MovRI, RD: 1, Imm: v})
		code, _, err := a.Finish()
		if err != nil {
			return false
		}
		p, err := Decode(VA64, code)
		if err != nil {
			return false
		}
		return interp(p.Instrs) == uint64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{0, -1, 1, 0xFFFF, 0x10000, -65536, 1 << 48, -1 << 48} {
		if !f(v) {
			t.Errorf("movri %d not reproduced", v)
		}
	}
}

func TestImmediateSizesX64(t *testing.T) {
	f := func(v int64) bool {
		a := NewAssembler(VX64)
		a.Emit(Instr{Op: MovRI, RD: 2, Imm: v})
		code, _, err := a.Finish()
		if err != nil {
			return false
		}
		p, err := Decode(VX64, code)
		if err != nil || len(p.Instrs) != 1 {
			return false
		}
		return p.Instrs[0].Imm == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFastEncoderLargerButEquivalent(t *testing.T) {
	emit := func(a Assembler) {
		a.Emit(Instr{Op: MovRI, RD: 1, Imm: 3})
		a.Emit(Instr{Op: AddI, RD: 1, RA: 1, Imm: 10})
		a.Emit(Instr{Op: Ret})
	}
	std := NewAssembler(VX64)
	emit(std)
	stdCode, _, err := std.Finish()
	if err != nil {
		t.Fatal(err)
	}
	fast := NewFastX64Assembler()
	emit(fast)
	fastCode, _, err := fast.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(fastCode) <= len(stdCode) {
		t.Errorf("fast encoder should produce larger code: %d vs %d", len(fastCode), len(stdCode))
	}
	ps, err := Decode(VX64, stdCode)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Decode(VX64, fastCode)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Instrs) != len(pf.Instrs) {
		t.Fatalf("instr count differs: %d vs %d", len(ps.Instrs), len(pf.Instrs))
	}
	for i := range ps.Instrs {
		if ps.Instrs[i] != pf.Instrs[i] {
			t.Errorf("instr %d differs: %+v vs %+v", i, ps.Instrs[i], pf.Instrs[i])
		}
	}
}

func TestBranchFixups(t *testing.T) {
	for _, arch := range []Arch{VX64, VA64} {
		a := NewAssembler(arch)
		top := a.NewLabel()
		end := a.NewLabel()
		a.Bind(top)
		a.Emit(Instr{Op: AddI, RD: 1, RA: 1, Imm: 1})
		a.Emit(Instr{Op: BrCC, Cond: CondSLT, RA: 1, RB: 2, Target: int32(top)})
		a.Emit(Instr{Op: Br, Target: int32(end)})
		a.Emit(Instr{Op: Trap, Imm: int64(TrapUnreachable)})
		a.Bind(end)
		a.Emit(Instr{Op: Ret})
		code, _, err := a.Finish()
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		p, err := Decode(arch, code)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		// Find branches; their targets must land on instruction starts.
		for k, in := range p.Instrs {
			if in.Op.IsBranch() {
				if in.Target < 0 || int(in.Target) >= len(p.Index) || p.Index[in.Target] < 0 {
					t.Errorf("%v: instr %d branch to unaligned %d", arch, k, in.Target)
				}
			}
		}
		// The conditional branch must target offset 0 (label top).
		found := false
		for _, in := range p.Instrs {
			if (in.Op == BrCC || in.Op == BrNZ) && in.Target == 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: no backward branch to offset 0 found", arch)
		}
	}
}

func TestUnboundLabelError(t *testing.T) {
	for _, arch := range []Arch{VX64, VA64} {
		a := NewAssembler(arch)
		l := a.NewLabel()
		a.Emit(Instr{Op: Br, Target: int32(l)})
		if _, _, err := a.Finish(); err == nil {
			t.Errorf("%v: expected unbound label error", arch)
		}
	}
}

func TestTwoAddressViolationX64(t *testing.T) {
	a := NewAssembler(VX64)
	a.Emit(Instr{Op: Add, RD: 1, RA: 2, RB: 3})
	if _, _, err := a.Finish(); err == nil {
		t.Error("expected two-address violation error")
	}
}

func TestRelocPatch(t *testing.T) {
	// vx64 call relocation.
	a := NewAssembler(VX64)
	a.EmitCallSym(7)
	a.Emit(Instr{Op: Ret})
	code, relocs, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(relocs) != 1 || relocs[0].Sym != 7 {
		t.Fatalf("relocs = %+v", relocs)
	}
	relocs[0].Patch(code, 1234)
	p, err := Decode(VX64, code)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Op != Call || p.Instrs[0].Imm != 1234 {
		t.Errorf("patched call = %+v", p.Instrs[0])
	}

	// va64 mov-sequence relocation.
	b := NewAssembler(VA64)
	b.EmitMovSym(3, 9)
	b.Emit(Instr{Op: Ret})
	code2, relocs2, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	relocs2[0].Patch(code2, 0x1122334455667788)
	p2, err := Decode(VA64, code2)
	if err != nil {
		t.Fatal(err)
	}
	var v uint64
	for _, in := range p2.Instrs {
		sh := 16 * uint(in.Cond)
		switch in.Op {
		case MovZ:
			v = uint64(uint16(in.Imm)) << sh
		case MovK:
			v = v&^(uint64(0xFFFF)<<sh) | uint64(uint16(in.Imm))<<sh
		}
	}
	if v != 0x1122334455667788 {
		t.Errorf("patched movseq = %#x", v)
	}
}

func TestCondNegateSwap(t *testing.T) {
	vals := []int64{-3, 0, 5}
	for c := Cond(0); c < NumConds; c++ {
		for _, a := range vals {
			for _, b := range vals {
				got := evalTest(c, a, b)
				if evalTest(c.Negate(), a, b) == got {
					t.Errorf("negate(%v) wrong for %d,%d", c, a, b)
				}
				if evalTest(c.Swap(), b, a) != got {
					t.Errorf("swap(%v) wrong for %d,%d", c, a, b)
				}
			}
		}
	}
}

func evalTest(c Cond, a, b int64) bool {
	ua, ub := uint64(a), uint64(b)
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondSLT:
		return a < b
	case CondSLE:
		return a <= b
	case CondSGT:
		return a > b
	case CondSGE:
		return a >= b
	case CondULT:
		return ua < ub
	case CondULE:
		return ua <= ub
	case CondUGT:
		return ua > ub
	case CondUGE:
		return ua >= ub
	}
	return false
}

// TestRandomProgramRoundTrip encodes random straight-line programs and
// verifies the decoder reproduces them exactly (vx64) or semantically
// (va64 expansions decode to more instructions).
// TestRandomProgramRoundTrip encodes random programs over every operation
// each architecture encodes as itself — the register fields the table lists
// filled in their class's range, the others zero — and decodes them back to
// the same instructions.
func TestRandomProgramRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, arch := range []Arch{VX64, VA64} {
		tg := ForArch(arch)
		var ops []Op
		for op := Op(0); op < NumOps; op++ {
			switch f := op.Info().Form; {
			case arch == VA64 && (f == FormMovI || f == FormBrCC): // expanded
			case arch == VX64 && f == FormMovZK: // va64 only
			default:
				ops = append(ops, op)
			}
		}
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(40)
			a := NewAssembler(arch)
			labels := make([]Label, n)
			for k := range labels {
				labels[k] = a.NewLabel()
			}
			want, dest := make([]Instr, n), make([]int, n)
			for k := range want {
				want[k] = randomInstr(rng, tg, ops[rng.Intn(len(ops))])
				if want[k].Op.IsBranch() {
					dest[k] = rng.Intn(n)
					want[k].Target = int32(labels[dest[k]])
				}
				a.Bind(labels[k])
				a.Emit(want[k])
			}
			code, _, err := a.Finish()
			if err != nil {
				t.Fatalf("%v trial %d: %v", arch, trial, err)
			}
			p, err := Decode(arch, code)
			if err != nil {
				t.Fatalf("%v trial %d: %v", arch, trial, err)
			}
			if len(p.Instrs) != n {
				t.Fatalf("%v trial %d: got %d instrs want %d", arch, trial, len(p.Instrs), n)
			}
			for k, w := range want {
				if w.Op.IsBranch() {
					w.Target = p.Offsets[dest[k]]
				}
				if p.Instrs[k] != w {
					t.Fatalf("%v trial %d instr %d: got %+v want %+v", arch, trial, k, p.Instrs[k], w)
				}
			}
		}
	}
}

// randomInstr returns an instruction of op with random contents in the
// fields its form encodes on tg, in ranges that encode as one instruction.
func randomInstr(rng *rand.Rand, tg *Target, op Op) Instr {
	info := op.Info()
	in := Instr{Op: op}
	reg := func(f Regs) uint8 {
		if (info.Use|info.Def)&f == 0 {
			return 0
		}
		if info.Class(f) == FPR {
			return uint8(rng.Intn(tg.NumFPR))
		}
		return uint8(rng.Intn(tg.NumGPR))
	}
	in.RD, in.RA, in.RB, in.RC = reg(RD), reg(RA), reg(RB), reg(RC)
	if info.TwoAddr && tg.TwoAddress {
		in.RA = in.RD
	}
	imm := rng.Int63() >> (8 * rng.Intn(8))
	if rng.Intn(2) == 0 {
		imm = -imm
	}
	switch info.Form {
	case FormRI, FormLoad, FormStore:
		in.Imm = imm
		if tg.FixedLen != 0 {
			in.Imm = int64(rng.Intn(4096) - 2048)
		}
	case FormMovI:
		in.Imm = imm
	case FormMovZK:
		in.Imm, in.Cond = int64(rng.Intn(1<<16)), Cond(rng.Intn(4))
	case FormSetCC, FormBrCC:
		in.Cond = Cond(rng.Intn(int(NumConds)))
	case FormCall:
		in.Imm = rng.Int63n(1 << 32)
		if tg.FixedLen != 0 {
			in.Imm = 4 * rng.Int63n(1<<24)
		}
	case FormCallRT:
		in.Imm = int64(rng.Intn(1 << 16))
	case FormTrap, FormTrapNZ:
		in.Imm = int64(rng.Intn(int(TrapOOM) + 1))
	}
	return in
}

func TestTargetDescriptors(t *testing.T) {
	for _, arch := range []Arch{VX64, VA64} {
		tg := ForArch(arch)
		if tg.Arch != arch {
			t.Errorf("%v: arch mismatch", arch)
		}
		gprs := tg.AllocatableGPRs()
		for _, r := range gprs {
			if r == tg.SP || r == tg.Scratch {
				t.Errorf("%v: allocatable contains reserved r%d", arch, r)
			}
		}
		if len(gprs) >= tg.NumGPR {
			t.Errorf("%v: SP not excluded", arch)
		}
		for _, r := range tg.CalleeSaved {
			if !tg.IsCalleeSaved(r) {
				t.Errorf("%v: IsCalleeSaved(r%d) = false", arch, r)
			}
		}
		for _, r := range tg.CallerSaved {
			if tg.IsCalleeSaved(r) {
				t.Errorf("%v: caller-saved r%d reported callee-saved", arch, r)
			}
		}
	}
}

func TestDisasmCoverage(t *testing.T) {
	a := NewAssembler(VX64)
	l := a.NewLabel()
	a.Bind(l)
	a.Emit(Instr{Op: MovRI, RD: 1, Imm: 42})
	a.Emit(Instr{Op: BrCC, Cond: CondEQ, RA: 1, RB: 2, Target: int32(l)})
	a.Emit(Instr{Op: Ret})
	code, _, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(VX64, code)
	if err != nil {
		t.Fatal(err)
	}
	out := DisasmAll(p)
	if out == "" {
		t.Error("empty disassembly")
	}
	for _, in := range p.Instrs {
		if s := Disasm(in); s == "" || s[0] == '?' {
			t.Errorf("bad disasm for %+v: %q", in, s)
		}
	}
}
