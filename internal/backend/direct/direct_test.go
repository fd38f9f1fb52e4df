package direct

import (
	"strings"
	"testing"

	"qcc/internal/backend"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

func compileSum(t *testing.T) (backend.Exec, *backend.Stats) {
	t.Helper()
	mod := qir.NewModule("t")
	b := qir.NewFunc(mod, "sum", qir.I64, qir.I64)
	n := b.Param(0)
	head, body, exit := b.NewBlock(), b.NewBlock(), b.NewBlock()
	zero := b.ConstInt(qir.I64, 0)
	one := b.ConstInt(qir.I64, 1)
	b.Br(head)
	b.SetBlock(head)
	i := b.Phi(qir.I64, 0, zero)
	acc := b.Phi(qir.I64, 0, zero)
	b.CondBr(b.ICmp(qir.CmpSLT, i, n), body, exit)
	b.SetBlock(body)
	acc2 := b.Bin(qir.OpAdd, acc, i)
	i2 := b.Bin(qir.OpAdd, i, one)
	b.AddPhiArg(i, body, i2)
	b.AddPhiArg(acc, body, acc2)
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(acc)
	if err := mod.VerifyModule(); err != nil {
		t.Fatal(err)
	}
	m := vm.New(vm.Config{Arch: vt.VX64, MemSize: 8 << 20})
	db := rt.NewDB(m)
	ex, stats, err := New().Compile(mod, &backend.Env{DB: db, Arch: vt.VX64})
	if err != nil {
		t.Fatal(err)
	}
	return ex, stats
}

func TestCompileAndRun(t *testing.T) {
	ex, stats := compileSum(t)
	res, err := ex.Call(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 4950 { // sum of 0..99
		t.Errorf("sum(100) = %d", res[0])
	}
	if stats.PhaseDur("Analysis") <= 0 || stats.PhaseDur("Codegen") <= 0 {
		t.Errorf("phases missing: %+v", stats.Phases)
	}
	if stats.CodeBytes == 0 {
		t.Error("no code emitted")
	}
}

func TestDisassembly(t *testing.T) {
	ex, _ := compileSum(t)
	asm := vt.DisasmAll(backend.ModuleOf(ex).Prog)
	for _, want := range []string{"subi", "brnz", "ret"} {
		if !strings.Contains(asm, want) {
			t.Errorf("disassembly missing %q:\n%s", want, asm)
		}
	}
}

func TestVA64Unsupported(t *testing.T) {
	mod := qir.NewModule("t")
	b := qir.NewFunc(mod, "f", qir.Void)
	b.Ret(qir.NoValue)
	m := vm.New(vm.Config{Arch: vt.VA64, MemSize: 8 << 20})
	db := rt.NewDB(m)
	_, _, err := New().Compile(mod, &backend.Env{DB: db, Arch: vt.VA64})
	if err == nil {
		t.Fatal("va64 should be unsupported, like the unmerged AArch64 port")
	}
	if _, ok := err.(*backend.ErrUnsupported); !ok {
		t.Errorf("error type %T", err)
	}
}

func TestCFIEncoding(t *testing.T) {
	cfi := encodeCFI(100, 260, 4096)
	if len(cfi) < 5 || cfi[0] != 0x01 {
		t.Errorf("cfi = %v", cfi)
	}
}
