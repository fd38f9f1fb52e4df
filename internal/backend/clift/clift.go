package clift

import (
	"fmt"

	"qcc/internal/backend"
	"qcc/internal/mcv"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vt"
)

// Engine is the Cranelift-like back-end.
type Engine struct {
	opts Options
}

// New returns the engine with all custom instructions enabled (the paper's
// tuned configuration).
func New() *Engine { return &Engine{} }

// NewWithOptions returns the engine with specific custom instructions
// disabled, for the Table II ablation.
func NewWithOptions(opts Options) *Engine { return &Engine{opts: opts} }

// Name implements backend.Engine.
func (e *Engine) Name() string { return "Cranelift" }

// Compile implements backend.Engine via the shared sequential unit driver:
// each function runs through the full Cranelift-style pipeline individually
// (Cranelift compiles one function at a time); the link step then
// concatenates the per-function buffers and patches relocations.
func (e *Engine) Compile(mod *qir.Module, env *backend.Env) (backend.Exec, *backend.Stats, error) {
	return backend.CompileUnits(e, mod, env)
}

// moduleCompiler implements backend.ModuleCompiler for one (module, env).
type moduleCompiler struct {
	mod  *qir.Module
	env  *backend.Env
	opts Options
	tgt  *vt.Target
}

// BeginModule implements backend.FuncEngine. Shared-state mutation happens
// here: string constants are interned into machine memory and every runtime
// helper translation can fall back to — depending on the ablation options —
// is imported into the module's runtime-name table, mirroring the
// conditions in translate/trapArith.
func (e *Engine) BeginModule(mod *qir.Module, env *backend.Env, ph *backend.Phaser) (backend.ModuleCompiler, error) {
	backend.PreIntern(mod, env.DB)
	for _, f := range mod.Funcs {
		for b := range f.Blocks {
			for _, v := range f.Blocks[b].List {
				in := &f.Instrs[v]
				switch in.Op {
				case qir.OpSMulTrap, qir.OpSAddTrap, qir.OpSSubTrap:
					if in.Type == qir.I128 {
						if in.Op == qir.OpSMulTrap {
							mod.RTImport(rt.FnI128MulOv)
						}
					} else if !isNarrow(in.Type) && e.opts.NoOverflow {
						switch in.Op {
						case qir.OpSAddTrap:
							mod.RTImport(rt.FnAddOv64)
						case qir.OpSSubTrap:
							mod.RTImport(rt.FnSubOv64)
						default:
							mod.RTImport(rt.FnMulOv64)
						}
					}
				case qir.OpCrc32:
					if e.opts.NoCrc32 {
						mod.RTImport(rt.FnCrc32Help)
					}
				}
			}
		}
	}
	return &moduleCompiler{mod: mod, env: env, opts: e.opts, tgt: vt.ForArch(env.Arch)}, nil
}

// Variant implements backend.ModuleCompiler (cache keying): the ablation
// options change emitted code, so they are part of the identity.
func (c *moduleCompiler) Variant() string {
	return fmt.Sprintf("clift/v1;crc32=%t;ovf=%t;mulwide=%t",
		!c.opts.NoCrc32, !c.opts.NoOverflow, !c.opts.NoMulWide)
}

// CompileFunc implements backend.ModuleCompiler: the per-function
// Cranelift-style pipeline, IRGen through Emit.
func (c *moduleCompiler) CompileFunc(i int, ph *backend.Phaser) (*backend.Unit, error) {
	f := c.mod.Funcs[i]

	// IRGen: two-pass translation with hash-map value mapping.
	sp := ph.Begin("IRGen")
	cir, err := translate(f, c.env, c.opts)
	sp.End()
	if err != nil {
		return nil, err
	}

	// IRPasses: CFG and dominator-tree computation on the IR.
	sp = ph.Begin("IRPasses")
	computeDomTree(cir)
	sp.End()

	// ISelPrepare: the three preparation passes.
	sp = ph.Begin("ISelPrepare")
	prep := runPrepare(cir)
	sp.End()

	// ISel: tree-matching lowering to VCode.
	sp = ph.Begin("ISel")
	vc, err := lower(cir, prep, c.tgt)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("clift: %s: %w", f.Name, err)
	}

	// RegAlloc (live-range building, bundle merging, assignment).
	rsp := ph.BeginGroup("RegAlloc")
	ra := allocate(vc, c.tgt, ph)
	rsp.End()
	ph.Count("bundles", int64(ra.numBundles))
	ph.Count("spilled", int64(ra.numSpilled))
	ph.Count("btree_inserts", int64(ra.btreeInserts))

	if c.env.Options.Check {
		csp := ph.Begin("Check.RegAlloc")
		cf, cdiags := buildCheckFunc(vc, ra, c.tgt)
		cdiags = append(cdiags, mcv.CheckFunc(cf)...)
		csp.End()
		if err := mcv.Error("clift: regalloc check", cdiags); err != nil {
			return nil, err
		}
	}

	// Emit.
	sp = ph.Begin("Emit")
	asm := vt.NewAssembler(c.env.Arch)
	if err := emit(vc, ra, c.tgt, asm); err != nil {
		sp.End()
		return nil, err
	}
	code, relocs, err := asm.Finish()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("clift: %s: %w", f.Name, err)
	}
	return &backend.Unit{
		Index: i, Name: f.Name, Bytes: len(code),
		Payload: &backend.CodeUnit{Code: code, Relocs: relocs},
	}, nil
}

// Link implements backend.ModuleCompiler: concatenate function buffers,
// apply relocations, register unwind info, load.
func (c *moduleCompiler) Link(units []*backend.Unit, ph *backend.Phaser) (backend.Exec, error) {
	sp := ph.Begin("Link")
	cfi := func(int32, int32, int64) []byte { return []byte{0x01} }
	return backend.Concat(units, cfi).Load("clift", c.mod, c.env, sp, ph)
}

// computeDomTree runs the Cooper–Harvey–Kennedy dominator algorithm over
// the CIR CFG (the IRPasses phase of the paper's breakdown). The result
// feeds block-layout sanity checks.
func computeDomTree(f *Func) []int32 {
	n := len(f.Blocks)
	// Reverse postorder.
	seen := make([]bool, n)
	var post []int32
	var succBuf []int32
	type frame struct {
		b    int32
		next int
	}
	stack := []frame{{b: 0}}
	seen[0] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		succBuf = f.succs(fr.b, succBuf[:0])
		if fr.next < len(succBuf) {
			s := succBuf[fr.next]
			fr.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		post = append(post, fr.b)
		stack = stack[:len(stack)-1]
	}
	rpo := make([]int32, len(post))
	for i := range post {
		rpo[len(post)-1-i] = post[i]
	}
	num := make([]int32, n)
	for i := range num {
		num[i] = -1
	}
	for i, b := range rpo {
		num[b] = int32(i)
	}
	idom := make([]int32, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[rpo[0]] = rpo[0]
	intersect := func(a, b int32) int32 {
		for a != b {
			for num[a] > num[b] {
				a = idom[a]
			}
			for num[b] > num[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var ni int32 = -1
			for _, p := range f.Blocks[b].Preds {
				if num[p] < 0 || idom[p] == -1 {
					continue
				}
				if ni == -1 {
					ni = p
				} else {
					ni = intersect(ni, p)
				}
			}
			if ni != -1 && idom[b] != ni {
				idom[b] = ni
				changed = true
			}
		}
	}
	return idom
}
