// Package direct implements the DirectEmit back-end from the paper: a
// single-pass compiler translating QIR straight to vx64 machine code.
//
// One analysis pass computes the dominator tree, natural loops and
// block-granularity liveness; one code generation pass then walks the blocks
// in reverse postorder, selecting instructions and allocating registers
// greedily on the fly. Values live across basic blocks reside in stack
// slots; within a block they are cached in registers, with the loop-depth
// and last-use heuristics from the paper guiding evictions. Encoding uses
// the branch-minimized fast encoder (8-byte immediates always). Only vx64 is
// supported — the paper notes the AArch64 port was never merged.
//
// The pipeline is exposed per function (backend.FuncEngine): every function
// is encoded into its own position-independent buffer whose function-address
// relocations are resolved at Link, so the parallel driver can compile
// functions on worker goroutines and the code cache can reuse buffers across
// modules.
package direct

import (
	"fmt"

	"qcc/internal/backend"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vt"
)

// Engine is the DirectEmit back-end.
type Engine struct{}

// New returns the DirectEmit engine.
func New() *Engine { return &Engine{} }

// Name implements backend.Engine.
func (e *Engine) Name() string { return "DirectEmit" }

// Compile implements backend.Engine via the shared sequential unit driver.
func (e *Engine) Compile(mod *qir.Module, env *backend.Env) (backend.Exec, *backend.Stats, error) {
	return backend.CompileUnits(e, mod, env)
}

// moduleCompiler implements backend.ModuleCompiler for one (module, env).
type moduleCompiler struct {
	mod *qir.Module
	env *backend.Env
}

// BeginModule implements backend.FuncEngine. All shared-state mutation
// happens here, before any (possibly concurrent) CompileFunc: string
// constants are interned into machine memory and the one runtime helper
// DirectEmit can emit (128-bit multiply overflow) is imported into the
// module's runtime-name table.
func (e *Engine) BeginModule(mod *qir.Module, env *backend.Env, ph *backend.Phaser) (backend.ModuleCompiler, error) {
	if env.Arch != vt.VX64 {
		return nil, &backend.ErrUnsupported{Backend: "direct", Reason: "only vx64 is supported"}
	}
	backend.PreIntern(mod, env.DB)
	for _, f := range mod.Funcs {
		for b := range f.Blocks {
			for _, v := range f.Blocks[b].List {
				in := &f.Instrs[v]
				if in.Op == qir.OpSMulTrap && in.Type == qir.I128 {
					mod.RTImport(rt.FnI128MulOv)
				}
			}
		}
	}
	return &moduleCompiler{mod: mod, env: env}, nil
}

// Variant implements backend.ModuleCompiler (cache keying).
func (c *moduleCompiler) Variant() string { return "direct/v1" }

// CompileFunc implements backend.ModuleCompiler: the analysis and single
// code-generation pass for one function, into a fresh encoder.
func (c *moduleCompiler) CompileFunc(i int, ph *backend.Phaser) (*backend.Unit, error) {
	f := c.mod.Funcs[i]

	// Analysis pass.
	sp := ph.Begin("Analysis")
	a := analyze(f)
	sp.End()

	// Code generation pass.
	sp = ph.Begin("Codegen")
	asm := vt.NewFastX64Assembler()
	g := &codegen{f: f, asm: asm, an: a, env: c.env, mod: c.mod}
	if err := g.genFunc(); err != nil {
		sp.End()
		return nil, fmt.Errorf("direct: %s: %w", f.Name, err)
	}
	code, relocs, err := asm.Finish()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("direct: %s: %w", f.Name, err)
	}
	return &backend.Unit{
		Index: i, Name: f.Name, Bytes: len(code),
		Payload: &backend.CodeUnit{Code: code, Relocs: relocs, FrameSize: g.frameSize},
	}, nil
}

// Link implements backend.ModuleCompiler: concatenate the unit buffers,
// resolve function-address relocations, build unwind info, load. DirectEmit
// has no pre-allocation program to check symbolically, so its verification is
// the shared epilogue's machine-code lint plus the structural summary.
func (c *moduleCompiler) Link(units []*backend.Unit, ph *backend.Phaser) (backend.Exec, error) {
	sp := ph.Begin("Emit")
	return backend.Concat(units, encodeCFI).Load("direct", c.mod, c.env, sp, ph)
}

// analysis bundles the single analysis pass results.
type analysis struct {
	dom     *qir.DomTree
	loops   *qir.LoopInfo
	live    *qir.Liveness
	lastUse []qir.Value // per value: highest value id using it
	depth   []int32     // per value: loop depth of defining block
}

func analyze(f *qir.Func) *analysis {
	dom := f.Dominators()
	loops := f.Loops(dom)
	live := f.LivenessAnalysis()
	a := &analysis{dom: dom, loops: loops, live: live}
	a.lastUse = make([]qir.Value, len(f.Instrs))
	a.depth = make([]int32, len(f.Instrs))
	var ops []qir.Value
	for b := range f.Blocks {
		for _, v := range f.Blocks[b].List {
			a.depth[v] = loops.Depth[b]
			ops = f.Operands(v, ops[:0])
			for _, u := range ops {
				if v > a.lastUse[u] {
					a.lastUse[u] = v
				}
			}
		}
	}
	return a
}

// encodeCFI produces compact synchronous unwind information: a tag byte,
// the code range, and the fixed frame size (DWARF-like, enough for the
// runtime to unwind at call sites).
func encodeCFI(start, end int32, frame int64) []byte {
	buf := make([]byte, 0, 16)
	buf = append(buf, 0x01) // version/tag
	buf = appendULEB(buf, uint64(start))
	buf = appendULEB(buf, uint64(end-start))
	buf = appendULEB(buf, uint64(frame))
	// def_cfa sp+frame at all call sites (synchronous unwinding only).
	buf = append(buf, 0x0C, 0x0F)
	return buf
}

func appendULEB(b []byte, v uint64) []byte {
	for {
		c := byte(v & 0x7F)
		v >>= 7
		if v != 0 {
			b = append(b, c|0x80)
		} else {
			return append(b, c)
		}
	}
}
