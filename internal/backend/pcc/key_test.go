package pcc

import (
	"testing"

	"qcc/internal/backend"
	"qcc/internal/backend/cbe"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// constMod builds a minimal one-function module returning a constant. The
// module is not meant to be compiled — unitKey hashes the raw body, so a
// bare function is enough to probe key sensitivity.
func constMod(imm int64) *qir.Module {
	f := &qir.Func{
		Name: "f",
		Ret:  qir.I64,
		Instrs: []qir.Instr{
			{Op: qir.OpConst, Type: qir.I64, Imm: imm},
			{Op: qir.OpRet, Type: qir.I64, A: 0},
		},
		Blocks: []qir.BasicBlock{{List: []qir.Value{0, 1}}},
	}
	return &qir.Module{Name: "m", Funcs: []*qir.Func{f}}
}

func TestUnitKeyDeterministic(t *testing.T) {
	a := unitKey(vt.VX64, "v1", constMod(42), nil, 0)
	b := unitKey(vt.VX64, "v1", constMod(42), nil, 0)
	if a != b {
		t.Fatal("identical function bodies must produce identical keys")
	}
}

// TestUnitKeyConstantSensitivity is the collision-resistance check from the
// issue: two functions differing only in one constant must get different
// keys (and therefore both miss in the cache).
func TestUnitKeyConstantSensitivity(t *testing.T) {
	a := unitKey(vt.VX64, "v1", constMod(42), nil, 0)
	b := unitKey(vt.VX64, "v1", constMod(43), nil, 0)
	if a == b {
		t.Fatal("functions differing only in a constant collided")
	}
}

func TestUnitKeyArchAndVariantSensitivity(t *testing.T) {
	m := constMod(42)
	base := unitKey(vt.VX64, "v1", m, nil, 0)
	if unitKey(vt.VA64, "v1", m, nil, 0) == base {
		t.Fatal("keys must differ across architectures")
	}
	if unitKey(vt.VX64, "v2", m, nil, 0) == base {
		t.Fatal("keys must differ across back-end variants")
	}

	// GCC's variant names the frame layout of its units: a cache filled by
	// the write-through allocator ("cbe/v1") must not serve this one.
	mc, err := cbe.New().BeginModule(m, &backend.Env{Arch: vt.VX64}, backend.NewPhaser(&backend.Stats{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if v := mc.Variant(); v == "" || v == "cbe/v1" ||
		unitKey(vt.VX64, v, m, nil, 0) == unitKey(vt.VX64, "cbe/v1", m, nil, 0) {
		t.Fatalf("GCC units are keyed under variant %q, as the write-through frames were", v)
	}
}

func TestUnitKeyRTImportSensitivity(t *testing.T) {
	m1 := constMod(42)
	m2 := constMod(42)
	m2.RTNames = append(m2.RTNames, "overflow")
	if unitKey(vt.VX64, "v1", m1, nil, 0) == unitKey(vt.VX64, "v1", m2, nil, 0) {
		t.Fatal("keys must depend on the runtime-import table (call indices and PLT layout)")
	}
}

// TestUnitKeyStringAddressSensitivity: OpConstStr bakes the interned
// string's machine address into the code, so the key must hash the resolved
// address — equal strings in one DB hit, different strings (and different
// DBs) miss.
func TestUnitKeyStringAddressSensitivity(t *testing.T) {
	mkStr := func(s string) *qir.Module {
		f := &qir.Func{
			Name: "f",
			Ret:  qir.Str,
			Instrs: []qir.Instr{
				{Op: qir.OpConstStr, Type: qir.Str, Imm: 0},
				{Op: qir.OpRet, Type: qir.Str, A: 0},
			},
			Blocks: []qir.BasicBlock{{List: []qir.Value{0, 1}}},
		}
		return &qir.Module{Name: "m", Funcs: []*qir.Func{f}, Strings: []string{s}}
	}
	db := rt.NewDB(vm.New(vm.Config{Arch: vt.VX64, MemSize: 64 << 20}))
	// Strings over 12 bytes are heap-allocated (shorter ones are inlined
	// in the 16-byte value and carry no address).
	const long1 = "alpha-string-beyond-inline"
	const long2 = "beta-string-beyond-inline!"
	a1 := unitKey(vt.VX64, "v1", mkStr(long1), db, 0)
	a2 := unitKey(vt.VX64, "v1", mkStr(long1), db, 0)
	b := unitKey(vt.VX64, "v1", mkStr(long2), db, 0)
	if a1 != a2 {
		t.Fatal("same string in the same DB must intern to the same address and key")
	}
	if a1 == b {
		t.Fatal("different string constants collided")
	}
	// A second DB interns "alpha" at a potentially different heap layout
	// only if allocations diverge; force divergence and require a miss.
	db2 := rt.NewDB(vm.New(vm.Config{Arch: vt.VX64, MemSize: 64 << 20}))
	db2.InternString("padding-so-the-heap-layout-differs")
	c := unitKey(vt.VX64, "v1", mkStr(long1), db2, 0)
	if a1 == c {
		t.Fatal("key must track the interned address, not just the string bytes")
	}
}
