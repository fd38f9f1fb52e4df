package mcv

import (
	"fmt"

	"qcc/internal/vm"
	"qcc/internal/vt"
)

// Lint statically checks a decoded program against its function table:
// every instruction must survive an encode→decode round trip unchanged,
// branches must land on instruction boundaries inside their function, stack
// accesses must stay within the declared frame, and call / runtime-call
// targets must resolve. numRT bounds the valid runtime-call indices.
func Lint(prog *vt.Program, funcs []vm.UnwindRange, numRT int) []Diag {
	var diags []Diag
	for i := range funcs {
		lintFunc(prog, &funcs[i], numRT, &diags)
	}
	return diags
}

func lintFunc(prog *vt.Program, fn *vm.UnwindRange, numRT int, diags *[]Diag) {
	bad := func(off int32, format string, args ...any) {
		*diags = append(*diags, Diag{
			Func: fn.Name, Block: -1, Inst: -1, Off: off,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	if fn.Start < 0 || int(fn.Start) >= len(prog.Index) || prog.Index[fn.Start] < 0 {
		bad(fn.Start, "function start is not an instruction boundary")
		return
	}
	if int(fn.End) != len(prog.Code) &&
		(fn.End < 0 || int(fn.End) >= len(prog.Index) || prog.Index[fn.End] < 0) {
		bad(fn.End, "function end is not an instruction boundary")
		return
	}

	// The frame size comes from the prologue's SP adjustment. A function
	// without a recognizable `sub sp, sp, imm` (e.g. an expanded
	// large-frame sequence) skips the stack-bounds check.
	frame := int64(-1)
	sp := forArch(prog.Arch).SP
	for k := prog.Index[fn.Start]; int(k) < len(prog.Instrs) && prog.Offsets[k] < fn.End; k++ {
		if in := prog.Instrs[k]; in.Op == vt.SubI && in.RD == sp && in.RA == sp {
			frame = in.Imm
			break
		}
	}

	for k := prog.Index[fn.Start]; int(k) < len(prog.Instrs) && prog.Offsets[k] < fn.End; k++ {
		in := prog.Instrs[k]
		off := prog.Offsets[k]

		if got, err := roundTrip(prog.Arch, in); err != nil {
			bad(off, "%s: does not re-encode: %v", vt.Disasm(in), err)
		} else {
			want := in
			want.Target, got.Target = 0, 0
			if got != want {
				bad(off, "round-trip mismatch: decoded %q, re-decoded %q", vt.Disasm(in), vt.Disasm(got))
			}
		}

		switch {
		case in.Op.IsBranch():
			t := in.Target
			if t < fn.Start || t >= fn.End {
				bad(off, "%s: branch target %d outside function [%d,%d)", vt.Disasm(in), t, fn.Start, fn.End)
			} else if prog.Index[t] < 0 {
				bad(off, "%s: branch target %d is not an instruction boundary", vt.Disasm(in), t)
			}
		case in.Op == vt.Call:
			t := in.Imm
			if t < 0 || t >= int64(len(prog.Code)) || prog.Index[t] < 0 {
				bad(off, "%s: call target %d is not an instruction boundary", vt.Disasm(in), t)
			}
		case in.Op == vt.CallRT:
			if in.Imm < 0 || in.Imm >= int64(numRT) {
				bad(off, "%s: runtime-call index %d out of range [0,%d)", vt.Disasm(in), in.Imm, numRT)
			}
		}

		if frame >= 0 && in.RA == sp {
			if sz, _, mem := in.Op.MemRef(); mem {
				if in.Imm < 0 || in.Imm+int64(sz) > frame {
					bad(off, "%s: stack access [%d,%d) outside frame of %d bytes",
						vt.Disasm(in), in.Imm, in.Imm+int64(sz), frame)
				}
			}
		}
	}
}

func forArch(a vt.Arch) *vt.Target { return vt.ForArch(a) }

// roundTrip re-encodes one decoded instruction with a fresh assembler and
// decodes the result. Branch targets are rebound to a dummy label (the
// caller compares everything except Target).
func roundTrip(arch vt.Arch, in vt.Instr) (vt.Instr, error) {
	a := vt.NewAssembler(arch)
	j := in
	if j.Op.IsBranch() {
		l := a.NewLabel()
		a.Bind(l)
		j.Target = int32(l)
	}
	a.Emit(j)
	code, relocs, err := a.Finish()
	if err != nil {
		return vt.Instr{}, err
	}
	if len(relocs) != 0 {
		return vt.Instr{}, fmt.Errorf("re-encoding produced %d relocations", len(relocs))
	}
	p, err := vt.Decode(arch, code)
	if err != nil {
		return vt.Instr{}, err
	}
	if len(p.Instrs) != 1 {
		return vt.Instr{}, fmt.Errorf("re-encoded to %d instructions", len(p.Instrs))
	}
	return p.Instrs[0], nil
}
