package backend

import (
	"fmt"

	"qcc/internal/mcv"
	"qcc/internal/qir"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// Image is a linked machine-code image as a back-end's linker leaves it:
// relocated code, the unwind range of every symbol, and the entry offset of
// each module function, in function-index order.
type Image struct {
	Code    []byte
	Unwind  []vm.UnwindRange
	Offsets []int32
}

// exec is the Exec of every machine-code back-end: a loaded Image on the
// machine it was bound to.
type exec struct {
	m       *vm.Machine
	mod     *vm.Module
	offsets []int32
}

func (x *exec) Call(fn int, args ...uint64) ([2]uint64, error) {
	return x.m.Call(x.mod, x.offsets[fn], args...)
}

// Module exposes the loaded image (see ModuleOf).
func (x *exec) Module() *vm.Module { return x.mod }

// Load is the epilogue every machine-code back-end's Link ends in. Inside
// final — the back-end's open last phase (Emit, Link, Linking), which Load
// closes — it decodes the image, registers the unwind ranges and binds the
// module's runtime names. Under Options.Check it then lints the machine code
// and records the per-function summaries of the cross-backend differential,
// as Check.* phases of their own. who prefixes errors.
func (img *Image) Load(who string, mod *qir.Module, env *Env, final PhaseSpan, ph *Phaser) (Exec, error) {
	vmod, err := vm.Load(env.Arch, img.Code)
	if err == nil {
		vmod.RegisterUnwind(img.Unwind)
		err = env.DB.Bind(mod.RTNames)
	}
	final.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", who, err)
	}
	if env.Options.Check {
		sp := ph.Begin("Check.Lint")
		diags := mcv.Lint(vmod.Prog, vmod.Funcs(), len(mod.RTNames))
		sp.End()
		if err := mcv.Error(who+": machine lint", diags); err != nil {
			return nil, err
		}
		sp = ph.Begin("Check.Summary")
		ph.Stats().Summaries = mcv.Summarize(vmod.Prog, vmod.Funcs(), mod.RTNames)
		sp.End()
	}
	ph.Stats().CodeBytes = len(img.Code)
	return &exec{m: env.DB.M, mod: vmod, offsets: img.Offsets}, nil
}

// CodeUnit is the Unit payload of the back-ends whose units are finished
// machine code (DirectEmit, Cranelift): one function's position-independent
// buffer, its unit-relative function-address relocations, and the frame size
// for back-ends whose unwind entries record one.
type CodeUnit struct {
	Code      []byte
	Relocs    []vt.Reloc
	FrameSize int64
}

// Concat links CodeUnit payloads: the buffers end to end in index order, every
// function-address relocation patched against that layout — on rebased
// copies, since payloads may be shared with the code cache — and one unwind
// range per function carrying the bytes cfi returns for it.
func Concat(units []*Unit, cfi func(start, end int32, frame int64) []byte) *Image {
	total := 0
	for _, u := range units {
		total += len(u.Payload.(*CodeUnit).Code)
	}
	img := &Image{
		Code:    make([]byte, 0, total),
		Unwind:  make([]vm.UnwindRange, len(units)),
		Offsets: make([]int32, len(units)),
	}
	for i, u := range units {
		p := u.Payload.(*CodeUnit)
		start := int32(len(img.Code))
		img.Code = append(img.Code, p.Code...)
		end := int32(len(img.Code))
		img.Offsets[i] = start
		img.Unwind[i] = vm.UnwindRange{
			Start: start, End: end, Name: u.Name,
			CFI: cfi(start, end, p.FrameSize), Func: int32(u.Index),
		}
	}
	for i, u := range units {
		for _, r := range u.Payload.(*CodeUnit).Relocs {
			r.Offset += img.Offsets[i]
			r.Patch(img.Code, int64(img.Offsets[r.Sym]))
		}
	}
	return img
}
