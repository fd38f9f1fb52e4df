package cbe

import (
	"fmt"
	"sort"
	"strings"

	"qcc/internal/backend"
	"qcc/internal/qir"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// Engine is the GCC/C back-end.
type Engine struct{}

// New returns the GCC/C engine.
func New() *Engine { return &Engine{} }

// Name implements backend.Engine.
func (e *Engine) Name() string { return "GCC" }

// Compile implements backend.Engine via the shared sequential unit driver.
// The phases correspond to the Table I breakdown: C code generation,
// re-parsing the text, lowering to the GIMPLE-like IR, -O3-style
// optimization, code generation to textual assembly, assembling, and
// linking.
func (e *Engine) Compile(mod *qir.Module, env *backend.Env) (backend.Exec, *backend.Stats, error) {
	return backend.CompileUnits(e, mod, env)
}

// moduleCompiler implements backend.ModuleCompiler. BeginModule makes the
// module-level mutations C generation would (string interning, runtime-helper
// imports) as a pre-walk; each function is rendered as C, re-lexed and
// re-parsed in CompileFunc, so a module whose units the code cache holds
// renders only the functions that miss.
type moduleCompiler struct {
	mod *qir.Module
	env *backend.Env
	tgt *vt.Target
}

// BeginModule implements backend.FuncEngine: intern every string constant
// and import every runtime helper the C text of the module names, in the
// order GenerateC would, before any unit is keyed or compiled.
func (e *Engine) BeginModule(mod *qir.Module, env *backend.Env, ph *backend.Phaser) (backend.ModuleCompiler, error) {
	sp := ph.Begin("GenerateC")
	prepareModule(mod, env)
	sp.End()
	return &moduleCompiler{mod: mod, env: env, tgt: vt.ForArch(env.Arch)}, nil
}

// Variant implements backend.ModuleCompiler (cache keying).
func (c *moduleCompiler) Variant() string { return "cbe/v2" }

// CompileFunc implements backend.ModuleCompiler: print one function as C,
// re-parse the text, gimplify, optimize, generate textual assembly, and
// assemble it into object code.
func (c *moduleCompiler) CompileFunc(i int, ph *backend.Phaser) (*backend.Unit, error) {
	// Phase 1: print the function as C (done by the database system).
	sp := ph.Begin("GenerateC")
	src, err := funcC(c.mod.Funcs[i], c.env)
	sp.End()
	if err != nil {
		return nil, err
	}
	ph.Count("c_source_bytes", int64(len(src)))

	// Phase 2: the "compiler proper" re-lexes and re-parses the text.
	sp = ph.Begin("Parse")
	toks, err := lexAll(src)
	if err != nil {
		sp.End()
		return nil, err
	}
	fns, err := parseUnit(toks)
	sp.End()
	if err != nil {
		return nil, err
	}
	ph.Count("c_tokens", int64(len(toks)))
	if len(fns) != 1 {
		return nil, fmt.Errorf("cbe: %s: parsed %d functions", c.mod.Funcs[i].Name, len(fns))
	}
	fn := fns[0]

	// Phase 3: gimplification.
	sp = ph.Begin("Gimplify")
	gf, err := gimplify(fn)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("cbe: %s: %w", fn.name, err)
	}

	// Phase 4: optimization (-O3-ish scalar pipeline).
	sp = ph.Begin("Optimize")
	n := optimizeGimple(gf, c.tgt)
	sp.End()
	ph.Count("passes_run", int64(n))

	// Phase 5: code generation to textual assembly.
	sp = ph.Begin("Codegen")
	var asmText strings.Builder
	err = genAsm(gf, c.tgt, &asmText)
	sp.End()
	if err != nil {
		return nil, err
	}
	ph.Count("asm_bytes", int64(asmText.Len()))

	// Phase 6: the assembler parses the text into object code.
	sp = ph.Begin("Assemble")
	objs, err := assemble(asmText.String(), c.env.Arch)
	sp.End()
	if err != nil {
		return nil, err
	}
	if len(objs) != 1 {
		return nil, fmt.Errorf("cbe: %s: assembled into %d sections", fn.name, len(objs))
	}
	return &backend.Unit{
		Index: i, Name: c.mod.Funcs[i].Name, Bytes: len(objs[0].code),
		Payload: objs[0],
	}, nil
}

// Link implements backend.ModuleCompiler. Phase 7: the linker produces the
// shared-object image, which is then dlopen'ed (loaded into the machine).
func (c *moduleCompiler) Link(units []*backend.Unit, ph *backend.Phaser) (backend.Exec, error) {
	sp := ph.Begin("Link")
	objs := make([]*asmFunc, len(units))
	for i, u := range units {
		objs[i] = u.Payload.(*asmFunc)
	}
	code, offsets, err := link(objs, c.env.Arch)
	if err != nil {
		sp.End()
		return nil, err
	}
	var unwind []vm.UnwindRange
	fnOffsets := make([]int32, len(c.mod.Funcs))
	for i, f := range c.mod.Funcs {
		off, ok := offsets[mangle(f.Name)]
		if !ok {
			sp.End()
			return nil, fmt.Errorf("cbe: dlsym: %s not found", f.Name)
		}
		fnOffsets[i] = off
		unwind = append(unwind, vm.UnwindRange{Start: off, Name: f.Name, CFI: []byte{1}, Func: int32(i)})
	}
	// The linker does not expose symbol sizes, so extend each range to the
	// next function's entry (or the end of the image): PC samples landing
	// mid-function then attribute to the right function instead of falling
	// off a degenerate one-byte range.
	starts := make([]int32, len(unwind))
	for i, u := range unwind {
		starts[i] = u.Start
	}
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
	for i := range unwind {
		end := int32(len(code))
		j := sort.Search(len(starts), func(k int) bool { return starts[k] > unwind[i].Start })
		if j < len(starts) {
			end = starts[j]
		}
		unwind[i].End = end
	}
	img := &backend.Image{Code: code, Unwind: unwind, Offsets: fnOffsets}
	return img.Load("cbe", c.mod, c.env, sp, ph)
}
