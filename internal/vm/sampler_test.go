package vm

import (
	"strings"
	"testing"

	"qcc/internal/obs"
	"qcc/internal/vt"
)

// loopMod assembles the sum-1..n loop used to exercise branch checkpoints.
func loopMod(t *testing.T, arch vt.Arch) *Module {
	return assemble(t, arch, func(a vt.Assembler) {
		loop := a.NewLabel()
		done := a.NewLabel()
		a.Emit(vt.Instr{Op: vt.MovRI, RD: 1, Imm: 0})
		a.Emit(vt.Instr{Op: vt.MovRI, RD: 2, Imm: 1})
		a.Bind(loop)
		a.Emit(vt.Instr{Op: vt.BrCC, Cond: vt.CondSGT, RA: 2, RB: 0, Target: int32(done)})
		mov3(a, vt.Add, 1, 1, 2)
		a.Emit(vt.Instr{Op: vt.AddI, RD: 2, RA: 2, Imm: 1})
		a.Emit(vt.Instr{Op: vt.Br, Target: int32(loop)})
		a.Bind(done)
		a.Emit(vt.Instr{Op: vt.MovRR, RD: 0, RA: 1})
		a.Emit(vt.Instr{Op: vt.Ret})
	})
}

// TestSamplerDeterministicAcrossDispatch checks that the fused and the
// unfused view take the same samples at the same byte offsets: epochs count
// executed instructions, and fused micro-ops attribute to the terminating
// branch's original instruction (pc0+n-1), matching where the unfused view's
// checkpoint sits.
func TestSamplerDeterministicAcrossDispatch(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		capture := func(fuse bool) (int64, map[int32]int64) {
			mod := loopMod(t, arch)
			mod.SetFuse(fuse)
			m := New(Config{Arch: arch})
			offs := map[int32]int64{}
			s := &Sampler{Period: 64, Hit: func(mod *Module, off int32) {
				if off < 0 || int(off) >= len(mod.Code) {
					t.Fatalf("sample offset %d outside code (%d bytes)", off, len(mod.Code))
				}
				offs[off]++
			}}
			m.SetSampler(s)
			res, err := m.Call(mod, 0, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if res[0] != 2001000 {
				t.Fatalf("sum(2000) = %d", res[0])
			}
			m.SetSampler(nil)
			return s.Samples, offs
		}
		fusedN, fusedOffs := capture(true)
		plainN, plainOffs := capture(false)
		if fusedN == 0 {
			t.Fatal("no samples taken")
		}
		if fusedN != plainN {
			t.Fatalf("fused %d samples, plain %d — dispatch modes disagree", fusedN, plainN)
		}
		if len(fusedOffs) != len(plainOffs) {
			t.Fatalf("fused offsets %v, plain offsets %v", fusedOffs, plainOffs)
		}
		for off, n := range fusedOffs {
			if plainOffs[off] != n {
				t.Fatalf("offset %#x: fused %d vs plain %d samples (fused=%v plain=%v)",
					off, n, plainOffs[off], fusedOffs, plainOffs)
			}
		}
	})
}

// TestSamplerReset checks SetSampler re-arms the epoch and removing the
// sampler stops sampling.
func TestSamplerReset(t *testing.T) {
	mod := loopMod(t, vt.VX64)
	m := New(Config{Arch: vt.VX64})
	s := &Sampler{Period: 128}
	m.SetSampler(s)
	if m.Sampler() != s {
		t.Fatal("Sampler() accessor")
	}
	if _, err := m.Call(mod, 0, 500); err != nil {
		t.Fatal(err)
	}
	first := s.Samples
	if first == 0 {
		t.Fatal("no samples")
	}
	m.SetSampler(nil)
	if _, err := m.Call(mod, 0, 500); err != nil {
		t.Fatal(err)
	}
	if s.Samples != first {
		t.Fatal("sampling continued after removal")
	}
	// Default period kicks in for Period <= 0.
	s2 := &Sampler{}
	m.SetSampler(s2)
	if s2.Period != DefaultSamplePeriod {
		t.Fatalf("period = %d, want default %d", s2.Period, DefaultSamplePeriod)
	}
}

// TestTrapFeedsFlightRecorder checks the post-mortem path: a top-level trap
// records a symbolized FlightTrap event in the global flight recorder.
func TestTrapFeedsFlightRecorder(t *testing.T) {
	both(t, func(t *testing.T, arch vt.Arch) {
		mod := assemble(t, arch, func(a vt.Assembler) {
			a.Emit(vt.Instr{Op: vt.Trap, Imm: int64(vt.TrapOverflow)})
		})
		mod.RegisterUnwind([]UnwindRange{{Start: 0, End: int32(len(mod.Code)), Name: "crash_main", Func: 0}})
		m := New(Config{Arch: arch})
		before := obs.FlightRec().Len()
		if _, err := m.Call(mod, 0); err == nil {
			t.Fatal("expected trap")
		}
		if obs.FlightRec().Len() == before {
			t.Fatal("trap not recorded in flight recorder")
		}
		found := false
		for _, ev := range obs.FlightRec().Snapshot() {
			if ev.Kind == obs.FlightTrap && strings.Contains(ev.Name, "crash_main") {
				found = true
			}
		}
		if !found {
			t.Fatal("no symbolized FlightTrap event retained")
		}
	})
}
