package lbe

import (
	"testing"

	"qcc/internal/vt"
)

func TestFoldBinOp(t *testing.T) {
	cases := []struct {
		op   Opcode
		t    *Type
		a, b int64
		want int64
	}{
		{LOpAdd, TI64, 3, 4, 7},
		{LOpSub, TI32, -1 << 31, 1, canon64(-1<<31-1, 32)},
		{LOpMul, TI64, 6, 7, 42},
		{LOpAnd, TI64, 0xFF, 0x0F, 0x0F},
		{LOpShl, TI64, 1, 10, 1024},
		{LOpLShr, TI32, -1, 28, 0xF},
		{LOpAShr, TI64, -8, 2, -2},
		{LOpXor, TI8, 0x7F, -1, canon64(^0x7F, 8)},
	}
	for _, c := range cases {
		if got := foldBinOp(c.op, c.t, c.a, c.b); got != c.want {
			t.Errorf("fold %s(%d, %d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestKnownBits(t *testing.T) {
	dag := &selectionDAG{isel: &isel{}}
	c := func(v int64) *dnode { return &dnode{op: LOpConst, ty: TI64, imm: v} }
	// and(x, 0xFF) has upper bits known zero.
	x := &dnode{special: specCopyFromReg, ty: TI64}
	and := &dnode{op: LOpAnd, ty: TI64, ops: []*dnode{x, c(0xFF)}}
	z, o := dag.knownBits(and, 0)
	if z&^uint64(0xFF) != ^uint64(0xFF) {
		t.Errorf("and-mask known zeros = %#x", z)
	}
	if o != 0 {
		t.Errorf("spurious known ones %#x", o)
	}
	// zext from i16 knows the top 48 bits are zero.
	src := &dnode{special: specCopyFromReg, ty: TI16}
	zx := &dnode{op: LOpZExt, ty: TI64, ops: []*dnode{src}}
	z, _ = dag.knownBits(zx, 0)
	if z&^uint64(0xFFFF) != ^uint64(0xFFFF) {
		t.Errorf("zext known zeros = %#x", z)
	}
	if dag.kbQueries == 0 {
		t.Error("queries not counted")
	}
}

func TestCombineIdentities(t *testing.T) {
	dag := &selectionDAG{isel: &isel{}}
	x := &dnode{special: specCopyFromReg, ty: TI64, vr: mval{a: 5, b: mnone}}
	addZero := &dnode{op: LOpAdd, ty: TI64, ops: []*dnode{x, {op: LOpConst, ty: TI64, imm: 0}}}
	if !dag.combine(addZero) {
		t.Fatal("add x,0 not combined")
	}
	if addZero.special != specCopyFromReg || addZero.vr.a != 5 {
		t.Errorf("combine result %+v", addZero)
	}
	cc := &dnode{op: LOpICmp, ty: TI1, pred: uint8(vt.CondSLT),
		ops: []*dnode{{op: LOpConst, ty: TI64, imm: 2}, {op: LOpConst, ty: TI64, imm: 3}}}
	if !dag.combine(cc) || cc.op != LOpConst || cc.imm != 1 {
		t.Errorf("icmp const fold: %+v", cc)
	}
}

func TestFastISelFallbackCauses(t *testing.T) {
	fi := &fastISel{isel: &isel{cfg: Config{}}}
	mk := func(ty *Type, op Opcode) *Instr { return &Instr{Op: op, Typ: ty} }
	if cause, _ := fi.fallbackCause(mk(TI128, LOpAdd)); cause != cntFallbackI128 {
		t.Errorf("i128 add cause = %q", cause)
	}
	if cause, _ := fi.fallbackCause(mk(TI64, LOpAdd)); cause != "" {
		t.Errorf("i64 add cause = %q", cause)
	}
	if cause, _ := fi.fallbackCause(mk(TI64, LOpAtomicRMWAdd)); cause != cntFallbackOther {
		t.Errorf("atomic cause = %q", cause)
	}
	// Calls: fine under Small-PIC, fallback with wide args or large CM.
	call := &Instr{Op: LOpCallRT, Typ: TVoid, Ops: []*Instr{{Op: LOpConst, Typ: TI64}}}
	if cause, _ := fi.fallbackCause(call); cause != "" {
		t.Errorf("plain call cause = %q", cause)
	}
	wideCall := &Instr{Op: LOpCallRT, Typ: TVoid, Ops: []*Instr{{Op: LOpConst, Typ: TI128}}}
	if cause, only := fi.fallbackCause(wideCall); cause != cntFallbackCall || !only {
		t.Errorf("wide call cause = %q per-instr=%v", cause, only)
	}
	large := &fastISel{isel: &isel{cfg: Config{LargeCodeModel: true}}}
	if cause, _ := large.fallbackCause(call); cause != cntFallbackCall {
		t.Errorf("large-cm call cause = %q", cause)
	}
}

func TestObjectRoundTrip(t *testing.T) {
	o := &object{
		text:  []byte{0, 0, 0, 0}, // four vx64 nops
		names: []byte("mainaux"),
		symbols: []objSymbol{
			{nameOff: 0, nameLen: 4, value: 0, size: 2},
			{nameOff: 4, nameLen: 3, value: 2, size: 2},
		},
	}
	enc := encodeObject(o)
	img, err := jitLink(enc, []string{"main", "aux"})
	if err != nil {
		t.Fatal(err)
	}
	if offs := img.Offsets; offs[0] != 0 || offs[1] != 2 {
		t.Errorf("offsets = %v", offs)
	}
	if len(img.Unwind) != 2 {
		t.Errorf("unwind ranges = %d", len(img.Unwind))
	}
	if _, err := jitLink([]byte("bogus"), nil); err == nil {
		t.Error("bogus object accepted")
	}
}

func TestTargetMachineTables(t *testing.T) {
	tm := newTargetMachine(vt.VX64)
	if len(tm.patterns) == 0 || tm.tgt.Arch != vt.VX64 {
		t.Error("targetmachine not built")
	}
	if !tm.patterns[vt.Add].commutes || tm.patterns[vt.Sub].commutes {
		t.Error("commutativity table wrong")
	}
	if tm.patterns[vt.SDiv].latency <= tm.patterns[vt.Add].latency {
		t.Error("latency table wrong")
	}
}
