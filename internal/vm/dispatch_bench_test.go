package vm

import (
	"testing"

	"qcc/internal/vt"
)

// benchSweep is a memory-heavy inner loop (store, load, accumulate, two
// induction increments per iteration) — the shape fusion targets: a guarded
// block with one xRun covering most of the body.
func benchSweep(b *testing.B, arch vt.Arch, fuse bool) {
	a := vt.NewAssembler(arch)
	loop := a.NewLabel()
	done := a.NewLabel()
	a.Emit(vt.Instr{Op: vt.MovRI, RD: 1, Imm: int64(nullGuard)})
	a.Emit(vt.Instr{Op: vt.MovRI, RD: 2, Imm: 0})
	a.Emit(vt.Instr{Op: vt.MovRI, RD: 3, Imm: 1 << 16})
	a.Bind(loop)
	a.Emit(vt.Instr{Op: vt.BrCC, Cond: vt.CondSGE, RA: 2, RB: 3, Target: int32(done)})
	a.Emit(vt.Instr{Op: vt.Store64, RA: 1, RB: 2, Imm: 0})
	a.Emit(vt.Instr{Op: vt.Load64, RD: 4, RA: 1, Imm: 0})
	a.Emit(vt.Instr{Op: vt.Add, RD: 5, RA: 5, RB: 4})
	a.Emit(vt.Instr{Op: vt.AddI, RD: 1, RA: 1, Imm: 8})
	a.Emit(vt.Instr{Op: vt.AddI, RD: 2, RA: 2, Imm: 1})
	a.Emit(vt.Instr{Op: vt.Br, Target: int32(loop)})
	a.Bind(done)
	a.Emit(vt.Instr{Op: vt.MovRR, RD: 0, RA: 5})
	a.Emit(vt.Instr{Op: vt.Ret})
	code, _, err := a.Finish()
	if err != nil {
		b.Fatal(err)
	}
	mod, err := Load(arch, code)
	if err != nil {
		b.Fatal(err)
	}
	mod.SetFuse(fuse)
	m := New(Config{Arch: arch})
	if _, err := m.Call(mod, 0); err != nil { // warm-up builds the view
		b.Fatal(err)
	}
	start := m.Executed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Call(mod, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Executed-start)/float64(b.Elapsed().Nanoseconds())*1e3, "Minstr/s")
}

func BenchmarkSweepFused(b *testing.B)   { benchSweep(b, vt.VX64, true) }
func BenchmarkSweepUnfused(b *testing.B) { benchSweep(b, vt.VX64, false) }
