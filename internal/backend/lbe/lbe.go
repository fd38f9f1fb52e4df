package lbe

import (
	"fmt"
	"sort"

	"qcc/internal/backend"
	"qcc/internal/mcv"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vt"
)

// Engine is the LLVM-like back-end.
type Engine struct {
	cfg     Config
	tmCache map[vt.Arch]*targetMachine
}

// NewCheap returns the cheap configuration (-O0, FastISel, fast register
// allocator) — "LLVM cheap" in the paper's tables.
func NewCheap() *Engine { return &Engine{cfg: Config{Opt: false}} }

// NewOpt returns the optimized configuration (-O2-style passes,
// SelectionDAG, greedy register allocator) — "LLVM optimized".
func NewOpt() *Engine { return &Engine{cfg: Config{Opt: true}} }

// NewWithConfig returns an engine with an explicit configuration (for the
// GlobalISel comparison and the Sec. V-A2 ablations).
func NewWithConfig(cfg Config) *Engine { return &Engine{cfg: cfg} }

// Name implements backend.Engine.
func (e *Engine) Name() string {
	switch {
	case e.cfg.ISel == ISelGlobal && e.cfg.Opt:
		return "LLVM GlobalISel opt"
	case e.cfg.ISel == ISelGlobal:
		return "LLVM GlobalISel cheap"
	case e.cfg.Opt:
		return "LLVM optimized"
	default:
		return "LLVM cheap"
	}
}

// targetMachine models LLVM's TargetMachine: its construction parses the
// target description and builds per-opcode selection tables, which is why
// the paper caches one instance per thread (Sec. V-A2, third measure).
type targetMachine struct {
	tgt      *vt.Target
	patterns map[vt.Op]patternInfo
	features []string
}

type patternInfo struct {
	latency  int
	size     int
	commutes bool
	hasImm   bool
}

func newTargetMachine(arch vt.Arch) *targetMachine {
	tm := &targetMachine{tgt: vt.ForArch(arch), patterns: map[vt.Op]patternInfo{}}
	// Build the per-opcode tables (the construction cost being cached).
	for op := vt.Op(0); op < vt.NumOps; op++ {
		pi := patternInfo{latency: 1, size: 4}
		switch op {
		case vt.Mul, vt.MulI, vt.MulWideU, vt.MulWideS:
			pi.latency = 3
		case vt.SDiv, vt.SRem, vt.UDiv, vt.URem, vt.FDiv:
			pi.latency = 20
		case vt.Load64, vt.Load32, vt.FLoad, vt.LoadU64, vt.LoadU32, vt.FLoadU:
			pi.latency = 4
		}
		switch op {
		case vt.Add, vt.Mul, vt.And, vt.Or, vt.Xor, vt.FAdd, vt.FMul:
			pi.commutes = true
		}
		if _, ok := map[vt.Op]bool{vt.AddI: true, vt.SubI: true, vt.MulI: true,
			vt.AndI: true, vt.OrI: true, vt.XorI: true}[op]; ok {
			pi.hasImm = true
		}
		tm.patterns[op] = pi
	}
	for i := 0; i < 32; i++ {
		tm.features = append(tm.features, fmt.Sprintf("feature%d", i))
	}
	return tm
}

// Compile implements backend.Engine via the shared sequential unit driver.
func (e *Engine) Compile(qmod *qir.Module, env *backend.Env) (backend.Exec, *backend.Stats, error) {
	return backend.CompileUnits(e, qmod, env)
}

// moduleCompiler implements backend.ModuleCompiler for one (module, env).
type moduleCompiler struct {
	qmod *qir.Module
	env  *backend.Env
	cfg  Config // ISel resolved
	tm   *targetMachine
	// prep and opt are built once per module and read-only afterwards
	// (run creates a fresh passContext per call).
	prep *passManager
	opt  *passManager
}

// unit is the per-function payload: one function's object-file fragment.
// Branches inside text are PC-relative; calls into the module PLT stay as
// named fixups and function-address references as symbol relocations, both
// resolved at Link.
type unit struct {
	text   []byte
	relocs []vt.Reloc  // function-index symbol relocations (MovSym)
	fixups []callFixup // $plt<N> call sites, unit-relative offsets
	cfi    []byte      // unwind advances, unit-relative offsets
	rtIDs  []uint32    // runtime helpers routed through the PLT, sorted
	fn     *Fn         // retained for the IRDestruct phase at Link
}

// BeginModule implements backend.FuncEngine. Shared-state mutation happens
// here: the TargetMachine cache, string-constant interning, and importing
// the runtime helpers translation can reach for lazily (the overflow trap
// and the 128-bit multiply helper), mirroring trapArith.
func (e *Engine) BeginModule(qmod *qir.Module, env *backend.Env, ph *backend.Phaser) (backend.ModuleCompiler, error) {
	cfg := e.cfg
	if cfg.ISel == ISelDefault {
		if cfg.Opt {
			cfg.ISel = ISelDAG
		} else {
			cfg.ISel = ISelFast
		}
	}

	// TargetMachine: constructed per compilation unless cached.
	sp := ph.Begin("TargetMachine")
	var tm *targetMachine
	if cfg.NoTMCache {
		tm = newTargetMachine(env.Arch)
	} else {
		if e.tmCache == nil {
			e.tmCache = map[vt.Arch]*targetMachine{}
		}
		tm = e.tmCache[env.Arch]
		if tm == nil {
			tm = newTargetMachine(env.Arch)
			e.tmCache[env.Arch] = tm
		}
	}
	sp.End()

	backend.PreIntern(qmod, env.DB)
	for _, f := range qmod.Funcs {
		for b := range f.Blocks {
			for _, v := range f.Blocks[b].List {
				in := &f.Instrs[v]
				switch in.Op {
				case qir.OpSMulTrap, qir.OpSAddTrap, qir.OpSSubTrap:
					if in.Type == qir.I128 && in.Op == qir.OpSMulTrap {
						qmod.RTImport(rtFnI128MulOv)
					} else {
						qmod.RTImport(rt.FnOverflow)
					}
				}
			}
		}
	}

	prep := &passManager{}
	for _, p := range backendPrepPasses() {
		prep.add(p)
	}
	opt := &passManager{}
	if cfg.Opt {
		for _, p := range optPasses() {
			opt.add(p)
		}
	}
	return &moduleCompiler{qmod: qmod, env: env, cfg: cfg, tm: tm, prep: prep, opt: opt}, nil
}

// Variant implements backend.ModuleCompiler (cache keying): every Config
// field that changes emitted bytes participates. NoTMCache only moves
// construction cost around, so it is deliberately absent.
func (c *moduleCompiler) Variant() string {
	return fmt.Sprintf("lbe/v1;opt=%t;isel=%d;structpairs=%t;largecode=%t",
		c.cfg.Opt, c.cfg.ISel, c.cfg.StructPairs, c.cfg.LargeCodeModel)
}

// CompileFunc implements backend.ModuleCompiler: the per-function LLVM-style
// pipeline, IRBuild through AsmPrinter, into a private object emitter.
func (c *moduleCompiler) CompileFunc(idx int, ph *backend.Phaser) (*backend.Unit, error) {
	qf := c.qmod.Funcs[idx]
	env, cfg, tgt := c.env, c.cfg, c.tm.tgt
	stats := ph.Stats()

	// Each unit gets its own IR module: Fn construction appends to the
	// module's function list, which must not be shared across goroutines.
	lmod := &Module{Name: c.qmod.Name, RTNames: c.qmod.RTNames}
	rtid := func(name string) uint32 { return c.qmod.RTImport(name) }

	// IR construction.
	sp := ph.Begin("IRBuild")
	fn, err := buildIR(qf, lmod, env, cfg, rtid)
	sp.End()
	if err != nil {
		return nil, err
	}

	// IR passes (midend in optimized mode, then back-end prep).
	sp = ph.Begin("IRPasses")
	if cfg.Opt {
		c.opt.run(fn, ph, stats)
	}
	c.prep.run(fn, ph, stats)
	sp.End()

	// Instruction selection.
	sp = ph.Begin("ISel")
	mf := &mfunc{name: fn.Name}
	mf.blocks = make([]mblock, len(fn.Blocks))
	is := &isel{cfg: cfg, fn: fn, mf: mf, tgt: tgt, stats: stats, vals: map[*Instr]mval{}}
	switch cfg.ISel {
	case ISelFast:
		dag := &selectionDAG{isel: is}
		fi := &fastISel{isel: is, dag: dag}
		is.cur = 0
		is.bindParams()
		for bi, b := range fn.Blocks {
			if err := fi.runOnBlock(b, int32(bi)); err != nil {
				return nil, err
			}
		}
		stats.Count("dag_nodes", dag.nodesBuilt)
		stats.Count("knownbits_queries", dag.kbQueries)
	case ISelDAG:
		dag := &selectionDAG{isel: is}
		is.cur = 0
		is.bindParams()
		for bi, b := range fn.Blocks {
			if err := dag.lowerRange(b, 0, len(b.Instrs), int32(bi)); err != nil {
				return nil, err
			}
		}
		stats.Count("dag_nodes", dag.nodesBuilt)
		stats.Count("knownbits_queries", dag.kbQueries)
	case ISelGlobal:
		gi := &gISel{isel: is}
		if _, err := gi.run(fn); err != nil {
			return nil, err
		}
	}
	sp.End()

	// SSA lowering and target constraints.
	sp = ph.Begin("OtherPasses")
	mf.computeCFG()
	phiElim(mf)
	rewrites := twoAddress(mf, tgt)
	stats.Count("twoaddr_rewrites", int64(rewrites))
	stats.Count("passes_run", 2)
	sp.End()

	// The verifier pairs post-allocation code with its pre-allocation
	// twin, so snapshot the MIR the allocators are about to rewrite.
	var preRA [][]minst
	if env.Options.Check {
		csp := ph.Begin("Check.Snapshot")
		preRA = snapshotMIR(mf)
		csp.End()
	}

	// Register allocation.
	sp = ph.Begin("RegAlloc")
	var ra *raState
	if cfg.Opt {
		ra, err = greedyRegAlloc(mf, tgt)
	} else {
		ra, err = fastRegAlloc(mf, tgt)
	}
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("lbe: %s: %w", fn.Name, err)
	}
	stats.Count("spill_slots", int64(ra.numSlots))

	// Check before the machine scan passes and prologue insertion
	// below mutate the MIR (frame indices become byte offsets there).
	if env.Options.Check {
		csp := ph.Begin("Check.RegAlloc")
		cf, cdiags := buildMCheckFunc(mf, preRA, ra, tgt)
		cdiags = append(cdiags, mcv.CheckFunc(cf)...)
		csp.End()
		if err := mcv.Error("lbe: regalloc check", cdiags); err != nil {
			return nil, err
		}
	}

	// The remaining small machine passes (stack coloring, copy
	// propagation scans, branch folding in opt mode, ...): each
	// iterates the machine code.
	sp = ph.Begin("PrologEpilog")
	runMachineScanPasses(mf, cfg.Opt, stats)
	prologEpilog(mf, ra, tgt)
	stats.Count("passes_run", 1)
	sp.End()

	// Assembly printing into the unit's private in-memory object. The
	// printer calls back into the encoder; under Lap accounting that time
	// was charged wholesale to AsmPrinter, while the span records the
	// encoder as a nested child.
	sp = ph.Begin("AsmPrinter")
	oe := newObjEmitter(env.Arch)
	rtUsed := map[uint32]bool{}
	if err := asmPrint(mf, tgt, oe, idx, cfg, rtUsed); err != nil {
		sp.End()
		return nil, err
	}
	text, relocs, fixups, err := oe.finish()
	sp.End()
	if err != nil {
		return nil, err
	}
	rtIDs := make([]uint32, 0, len(rtUsed))
	for id := range rtUsed {
		rtIDs = append(rtIDs, id)
	}
	sort.Slice(rtIDs, func(a, b int) bool { return rtIDs[a] < rtIDs[b] })

	return &backend.Unit{
		Index: idx, Name: fn.Name, Bytes: len(text),
		Payload: &unit{
			text: text, relocs: relocs, fixups: fixups,
			cfi: oe.cfi, rtIDs: rtIDs, fn: fn,
		},
	}, nil
}

// Link implements backend.ModuleCompiler: module epilogue — PLT stubs,
// object emission, JIT linking, verification, IR destruction.
func (c *moduleCompiler) Link(units []*backend.Unit, ph *backend.Phaser) (backend.Exec, error) {
	env, qmod := c.env, c.qmod

	sp := ph.Begin("ObjectEmission")
	// Layout: the function texts in index order, then the PLT stubs for
	// every runtime helper any unit routed through the PLT.
	bases := make([]int32, len(units))
	total := 0
	rtUsed := map[uint32]bool{}
	var maxRT uint32
	for i, u := range units {
		p := u.Payload.(*unit)
		bases[i] = int32(total)
		total += len(p.text)
		for _, id := range p.rtIDs {
			rtUsed[id] = true
			if id > maxRT {
				maxRT = id
			}
		}
	}
	pltOe := newObjEmitter(env.Arch)
	emitPLT(pltOe, rtUsed, maxRT)
	pltText, pltRelocs, pltFixups, err := pltOe.finish()
	if err != nil {
		sp.End()
		return nil, err
	}
	if len(pltRelocs) != 0 || len(pltFixups) != 0 {
		sp.End()
		return nil, fmt.Errorf("lbe: PLT emitted unexpected relocations")
	}
	pltBase := int32(total)

	text := make([]byte, 0, total+len(pltText))
	var cfi []byte
	obj := &object{}
	var fnNames []string
	for i, u := range units {
		p := u.Payload.(*unit)
		text = append(text, p.text...)
		cfi, err = rebaseCFIAdvances(cfi, p.cfi, int(bases[i]))
		if err != nil {
			sp.End()
			return nil, err
		}
		nameOff := int32(len(obj.names))
		obj.names = append(obj.names, u.Name...)
		obj.symbols = append(obj.symbols, objSymbol{
			nameOff: nameOff, nameLen: int32(len(u.Name)),
			value: bases[i], size: int32(len(p.text)),
		})
		for _, r := range p.relocs {
			obj.relocs = append(obj.relocs, objReloc{off: r.Offset + bases[i], kind: r.Kind, sym: r.Sym})
		}
		fnNames = append(fnNames, u.Name)
	}
	text = append(text, pltText...)
	cfi, err = rebaseCFIAdvances(cfi, pltOe.cfi, int(pltBase))
	if err != nil {
		sp.End()
		return nil, err
	}
	// Resolve the units' PLT call sites now that stub addresses exist.
	for i, u := range units {
		for _, f := range u.Payload.(*unit).fixups {
			pos, ok := pltOe.labelPos[f.label]
			if !ok {
				sp.End()
				return nil, fmt.Errorf("lbe: unresolved local call to %s", f.label)
			}
			pltOe.patchCall(text, f.at+bases[i], int64(pltBase+pos))
		}
	}
	obj.text = text
	obj.cfi = cfi
	objBytes := encodeObject(obj)
	sp.End()

	sp = ph.Begin("Linking")
	img, err := jitLink(objBytes, fnNames)
	if err != nil {
		sp.End()
		return nil, err
	}
	exec, err := img.Load("lbe", qmod, env, sp, ph)
	if err != nil {
		return nil, err
	}

	// Destructing the IR module is measurably expensive in LLVM; walk and
	// release everything explicitly.
	sp = ph.Begin("IRDestruct")
	for _, u := range units {
		p := u.Payload.(*unit)
		fn := p.fn
		if fn == nil {
			continue // unit came from the code cache; its IR is long gone
		}
		p.fn = nil
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				in.Ops = nil
				in.Uses = nil
				in.Inc = nil
			}
			b.Instrs = nil
			b.Preds = nil
		}
		fn.Blocks = nil
		fn.Params = nil
	}
	sp.End()
	return exec, nil
}

// runMachineScanPasses models the tail of the codegen pipeline: many small
// passes each scanning the machine code (67 passes in the cheap pipeline,
// 146 in the optimized one, per the paper).
func runMachineScanPasses(mf *mfunc, optMode bool, stats *backend.Stats) {
	names := []string{
		"machine-sink-check", "stack-coloring", "machine-cp", "post-ra-pseudos",
		"implicit-null-checks", "machine-licm-verify", "fentry-insert",
		"xray-instrumentation", "patchable-function", "func-alias-analysis",
		"livedebugvalues", "machine-sanitizer", "branch-relaxation-scan",
		"cfi-instr-inserter", "unpack-mi-bundles", "remove-redundant-debug",
	}
	if optMode {
		names = append(names,
			"machine-cse", "machine-licm", "peephole-opts", "dead-mi-elimination",
			"early-ifcvt-scan", "machine-combiner", "shrink-wrap-analysis",
			"block-placement", "tail-duplication-scan", "branch-folding",
			"machine-outliner-scan", "implicit-def-scan", "opt-phi-scan",
			"postra-sched-scan", "macro-fusion-scan", "copy-prop-2",
		)
	}
	for range names {
		n := 0
		for b := range mf.blocks {
			for i := range mf.blocks[b].insts {
				in := &mf.blocks[b].insts[i]
				if in.op == vt.Nop {
					n++
				}
			}
		}
		_ = n
		stats.Count("passes_run", 1)
	}
}
