package vm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qcc/internal/vt"
)

// TestOpRegistersMatchTable runs every operation alone on a machine whose
// register files hold random values, on both targets and both views, and
// holds what it does to vt's table: the registers it changes are exactly the
// fields the table lists as defs, and re-randomizing every register the table
// does not list as a use changes neither its defs' results, nor memory, nor
// how it ends.
func TestOpRegistersMatchTable(t *testing.T) {
	const (
		memSize = 256 << 10
		addr    = 64 << 10 // RA of a memory operation
		disp    = 24
	)
	rng := rand.New(rand.NewSource(1))
	both(t, func(t *testing.T, arch vt.Arch) {
		tg := vt.ForArch(arch)
		for op := vt.Op(0); op < vt.NumOps; op++ {
			info := op.Info()
			switch f := info.Form; {
			case arch == vt.VA64 && (f == vt.FormMovI || f == vt.FormBrCC),
				arch == vt.VX64 && f == vt.FormMovZK:
				continue // not encodable as itself on this target
			}
			// Distinct registers per class, none of them SP.
			gprs, fprs := rng.Perm(tg.NumGPR), rng.Perm(tg.NumFPR)
			for k, r := range gprs {
				if uint8(r) == tg.SP {
					gprs = append(gprs[:k], gprs[k+1:]...)
					break
				}
			}
			in := vt.Instr{Op: op, Imm: 13, Cond: vt.CondULT}
			fields := []struct {
				f vt.Regs
				p *uint8
			}{{vt.RD, &in.RD}, {vt.RA, &in.RA}, {vt.RB, &in.RB}, {vt.RC, &in.RC}}
			for k, fl := range fields {
				if (info.Use|info.Def)&fl.f != 0 {
					*fl.p = uint8(gprs[k])
					if info.Class(fl.f) == vt.FPR {
						*fl.p = uint8(fprs[k])
					}
				}
			}
			if info.TwoAddr && tg.TwoAddress {
				in.RA = in.RD
			}
			switch info.Form {
			case vt.FormLoad, vt.FormStore:
				in.Imm = disp
			case vt.FormMovZK:
				in.Cond = 1
			case vt.FormTrap, vt.FormTrapNZ:
				in.Imm = int64(vt.TrapOverflow)
			case vt.FormCallRT:
				in.Imm = 0
			}
			// op; ret; L1: trap; L2: ret — a branch goes to L1, a call to L2.
			build := func(callee int64) (*Module, int64) {
				a := vt.NewAssembler(arch)
				l1 := a.NewLabel()
				j := in
				if op.IsBranch() {
					j.Target = int32(l1)
				}
				if info.Form == vt.FormCall {
					j.Imm = callee
				}
				a.Emit(j)
				a.Emit(vt.Instr{Op: vt.Ret})
				a.Bind(l1)
				a.Emit(vt.Instr{Op: vt.Trap, Imm: int64(vt.TrapUnreachable)})
				l2 := int64(a.PCOffset())
				a.Emit(vt.Instr{Op: vt.Ret})
				code, _, err := a.Finish()
				if err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				mod, err := Load(arch, code)
				if err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				return mod, l2
			}
			_, callee := build(0)
			mod, _ := build(callee)

			// isField reports whether register r of class cls is named by
			// one of the fields in set.
			isField := func(set vt.Regs, cls vt.RegClass, r int) bool {
				for _, fl := range fields {
					if set&fl.f != 0 && info.Class(fl.f) == cls && int(*fl.p) == r {
						return true
					}
				}
				return false
			}
			// poison fills the register files with random values, keeping
			// the uses' values from keepR/keepF when given; a memory
			// operation's base and an indirect call's target are fixed.
			poison := func(m *Machine, keepR *[32]uint64, keepF *[16]float64) {
				for r := range m.R {
					m.R[r] = rng.Uint64() | 1<<62
					if keepR != nil && isField(info.Use, vt.GPR, r) {
						m.R[r] = keepR[r]
					}
				}
				for r := range m.F {
					m.F[r] = math.Float64frombits(rng.Uint64() | 1<<62)
					if keepF != nil && isField(info.Use, vt.FPR, r) {
						m.F[r] = keepF[r]
					}
				}
				if info.Mem != 0 {
					m.R[in.RA] = addr
				}
				if info.Form == vt.FormCallInd {
					m.R[in.RA] = uint64(callee)
				}
				m.R[tg.SP] = m.stackTop
			}
			// get reads the register a field names, as bits.
			get := func(m *Machine, f vt.Regs, r uint8) uint64 {
				if info.Class(f) == vt.FPR {
					return math.Float64bits(m.F[r])
				}
				return m.R[r]
			}
			mem := make([]byte, 64)
			rng.Read(mem)
			run := func(m *Machine) string {
				copy(m.Mem[addr:], mem)
				m.RT = []RTFunc{func(*Machine) error { return nil }}
				_, err := m.Call(mod, 0)
				return fmt.Sprint(err)
			}
			for _, fuse := range []bool{true, false} {
				mod.SetFuse(fuse)
				var written vt.Regs
				for trial := 0; trial < 6; trial++ {
					m := New(Config{Arch: arch, MemSize: memSize, StackSize: 16 << 10})
					poison(m, nil, nil)
					before := &Machine{R: m.R, F: m.F}
					end := run(m)
					for r := range m.R {
						if m.R[r] != before.R[r] && !isField(info.Def, vt.GPR, r) {
							t.Fatalf("%v %s (fuse %v): writes r%d, not a def", arch, op, fuse, r)
						}
					}
					for r := range m.F {
						if math.Float64bits(m.F[r]) != math.Float64bits(before.F[r]) && !isField(info.Def, vt.FPR, r) {
							t.Fatalf("%v %s (fuse %v): writes f%d, not a def", arch, op, fuse, r)
						}
					}
					for _, fl := range fields {
						if info.Def&fl.f != 0 && get(m, fl.f, *fl.p) != get(before, fl.f, *fl.p) {
							written |= fl.f
						}
					}

					// Re-randomize every register that is not a use.
					m2 := New(Config{Arch: arch, MemSize: memSize, StackSize: 16 << 10})
					poison(m2, &before.R, &before.F)
					if end2 := run(m2); end2 != end {
						t.Fatalf("%v %s (fuse %v): ends %q, then %q after changing non-uses", arch, op, fuse, end, end2)
					}
					for _, fl := range fields {
						if info.Def&fl.f != 0 && get(m, fl.f, *fl.p) != get(m2, fl.f, *fl.p) {
							t.Fatalf("%v %s (fuse %v): def field %b depends on a register the table does not list as a use", arch, op, fuse, fl.f)
						}
					}
					if string(m.Mem[addr:addr+64]) != string(m2.Mem[addr:addr+64]) {
						t.Fatalf("%v %s (fuse %v): memory depends on a register the table does not list as a use", arch, op, fuse)
					}
				}
				if written != info.Def {
					t.Errorf("%v %s (fuse %v): writes fields %b, table defs %b", arch, op, fuse, written, info.Def)
				}
			}
		}
	})
}
