package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"unsafe"

	"qcc/internal/backend"
	"qcc/internal/codegen"
	"qcc/internal/obs"
	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/sa"
)

// The code level of the program cache, below the statement-shape level. A
// statement the cache has not seen often compiles to code it has: statements
// that differ in what their batch kernels compute, or in a literal's value
// where the shape key still differs, produce functions whose unit keys all
// hit. Such a miss used to pay Finish (constant hoisting, the static
// analysis, the verifier), one unit key per function, link, load and a fresh
// fusion. The code level keys code by what Finish and the back-end read of
// it, as Generate leaves it, and keeps the finished module with its linked,
// loaded executable. A plan whose generated code has that key runs the
// cached executable with its own kernels and its own constant pool.
//
// The code key is a sha256 over
//
//   - the key prefix (engine, module name, the option flags,
//     CheckElimVersion) and the module's runtime imports;
//   - the state size and the pipeline metadata without kernel programs,
//     each scanned table by content (appendTable): the code holds its
//     column addresses and the analysis its row count and column arrays,
//     the only regions it sees;
//   - every function's name, signature, blocks, instructions, operand lists
//     and pointer facts, each hoisting candidate with its value masked and
//     every other constant by value, strings by content;
//   - when there is a candidate, the number of pool slots the kernels take,
//     since the hoisted slots follow them.
//
// Finish decides what to hoist and what is safe from this alone: the
// analysis widens every candidate to an unknown value. So code whose every
// candidate was pooled is the same for all plans of one key and compiles in
// no literal value. Code that keeps a candidate inline is stored under a key
// that also covers the plan's fingerprint (ownCodeKey), which only its own
// plan shape computes.

var (
	obsCodeHits     = obs.NewCounter("engine.code_cache_hits")
	obsCodeMisses   = obs.NewCounter("engine.code_cache_misses")
	obsCodeDeclines = obs.NewCounter("engine.code_cache_declines")
)

// codeTag begins every code key, and shapeTag every shape key, so the two
// kinds of key never meet.
const codeTag = 1

// codeEntry is one compiled code: the finished module, the executable, and
// what serving it to another plan needs. The pipelines, which hold a plan's
// kernels, are each binding's own; compiled has none.
type codeEntry struct {
	compiled *codegen.Compiled
	exec     backend.Exec
	stats    *backend.Stats
	// strs lists the string constants left in the code. Back-ends bake their
	// machine address in, and the runtime forgets strings interned above a
	// released heap mark or a checkpoint.
	strs []bakedString
	// slotCands gives, for each pool slot hoisting added, the ordinal of its
	// candidate among codegen.Compiler.CandidateLits; those slots follow the
	// kernels' slots.
	slotCands []int32
	// key is the code's key in the cache, id its identity there (World.codeIDs);
	// fixed the heap the entry holds apart from the executable.
	key   string
	id    uint64
	fixed int64
}

type bakedString struct {
	s      string
	lo, hi uint64
}

// newCodeEntry takes the code of a program just compiled.
func newCodeEntry(p *Program, db *rt.DB) *codeEntry {
	mod := p.Compiled.Module
	compiled := *p.Compiled
	compiled.Pipelines = nil
	code := &codeEntry{compiled: &compiled, exec: p.Exec, stats: p.Stats}
	seen := make([]bool, len(mod.Strings))
	for _, f := range mod.Funcs {
		for i := range f.Instrs {
			if in := &f.Instrs[i]; in.Op == qir.OpConstStr && !seen[in.Imm] {
				seen[in.Imm] = true
				s := mod.Strings[in.Imm]
				lo, hi := db.InternString(s)
				code.strs = append(code.strs, bakedString{s, lo, hi})
			}
		}
	}
	return code
}

// stringsInPlace reports whether every string the code has baked in is still
// where the code expects it.
func (e *codeEntry) stringsInPlace(db *rt.DB) bool {
	for i := range e.strs {
		if lo, hi := db.InternString(e.strs[i].s); lo != e.strs[i].lo || hi != e.strs[i].hi {
			return false
		}
	}
	return true
}

// footprint is what the cache charges for the code: its key, the QIR module,
// its own tables (fixed) and the executable. The executable grows after it
// is stored: the first call builds a vm module's fused view (charged by
// estimate until then), and the adaptive engine adds its optimized module
// when it promotes. Run therefore charges the code again after every
// execution.
// Module and executable report their backing arrays (qir.Module.Footprint,
// backend.FootprintOf: code image, decoded program, offset tables, fused view,
// or the interpreter's bytecode).
// Measured, before programs were split into code and bindings, by storing
// 400 distinct three-predicate shapes in an unbounded cache and comparing
// the charge, units included, with the growth of the live heap after a
// collection: the charge is 0.88 (interpreter) to 1.12 (Cranelift) times the
// growth, per engine; each shape entry's bindingSpans now comes on top.
// TestProgramCacheBudget holds the sum to the heap in use.
func (e *codeEntry) footprint() int64 {
	return e.fixed + backend.FootprintOf(e.exec)
}

func (e *codeEntry) fixedFootprint() int64 {
	n := int64(unsafe.Sizeof(*e)) + int64(len(e.key)) + e.compiled.Module.Footprint() +
		int64(unsafe.Sizeof(*e.compiled)) + int64(len(e.slotCands))*4 +
		int64(len(e.strs))*int64(unsafe.Sizeof(bakedString{}))
	for i := range e.strs {
		n += int64(len(e.strs[i].s))
	}
	return n
}

// pipesFootprint is the heap a pipeline list holds: its array and the
// batch kernels' specs.
func pipesFootprint(pipes []codegen.Pipeline) int64 {
	n := int64(cap(pipes)) * int64(unsafe.Sizeof(codegen.Pipeline{}))
	for i := range pipes {
		if k := pipes[i].Kernel; k != nil {
			n += k.Footprint()
		}
	}
	return n
}

// serveCode returns the program that runs code for the plan fp describes,
// whose code generation is g, with the plan's binding to the code: it has
// the plan's kernels and the pool built from its literals — the kernels'
// slots as g allocated them, the hoisted slots in the code's slot order. It
// returns nil when the code does not serve the plan: a baked string moved,
// or the generator's report and the fingerprint disagree.
func (w *World) serveCode(code *codeEntry, g *codegen.Compiler, fp *plan.Fingerprint) *Program {
	gc := g.Generated()
	cands := g.CandidateLits(w.cands[:0])
	poolLits := append(w.poolLits[:0], gc.PoolLits...)
	want := append([]qir.PoolConst(nil), gc.Module.Pool...)
	for _, c := range code.slotCands {
		poolLits = append(poolLits, cands[c])
		v, _ := codegen.PoolConstOf(cands[c])
		want = append(want, v)
	}
	w.cands, w.poolLits = cands, poolLits
	b, pool := bindPlan(code, gc.Pipelines, poolLits, gc.InlineLits, want, fp, w.vals, w.DB)
	if b == nil {
		return nil
	}
	p := code.program(b, pool, false)
	p.CodeHit = true
	return p
}

// program returns the program that runs the code for binding b with the
// constant pool pool; hit reports that b was found at the statement-shape
// level.
func (e *codeEntry) program(b *shapeEntry, pool []qir.PoolConst, hit bool) *Program {
	compiled := *e.compiled
	compiled.Pipelines = b.pipes
	return &Program{Compiled: &compiled, Exec: e.exec, Stats: e.stats, Pool: pool,
		Hit: hit, bind: b, code: e, compiled0: e.stats.Total}
}

// ownCodeKey writes into w.ckey, and returns, the key of code that keeps a
// literal of the plan fp describes inline: the code key ckey and the plan's
// fingerprint hashed together.
func (w *World) ownCodeKey(ckey []byte, fp *plan.Fingerprint) []byte {
	w.cbuf = append(append(w.cbuf[:0], ckey...), fp.Key...)
	sum := sha256.Sum256(w.cbuf)
	w.ckey = append(append(w.ckey[:0], codeTag), sum[:]...)
	return w.ckey
}

// codeKey writes the code key of the generated code g (see above) into
// w.ckey and returns it. Generate has found every scanned table.
func (w *World) codeKey(g *codegen.Compiler, eng backend.Engine, name string) []byte {
	c := g.Generated()
	mod := c.Module
	k := w.keyPrefix(w.cbuf[:0], eng, name)
	k = binary.AppendUvarint(k, uint64(c.StateSize))
	k = binary.AppendUvarint(k, uint64(len(mod.RTNames)))
	for _, n := range mod.RTNames {
		k = appendString(k, n)
	}
	k = binary.AppendUvarint(k, uint64(len(c.Pipelines)))
	for i := range c.Pipelines {
		p := &c.Pipelines[i]
		for _, v := range []int64{int64(p.SetupFn), int64(p.MainFn), int64(p.CleanupFn), int64(p.MergeFn),
			int64(p.Source), p.SourceOff, int64(p.Sink), p.SinkOff, p.KernelOff} {
			k = binary.AppendVarint(k, v)
		}
		k = append(k, flagByte(p.NoParallel, p.Batch, p.Kernel != nil))
		if p.Source == codegen.SrcTable {
			t, _ := w.Cat.Table(p.Table)
			k = appendTable(appendString(k, p.Table), t)
		}
	}
	ncands := 0
	for _, f := range mod.Funcs {
		ncands += len(g.Candidates(f))
	}
	k = binary.AppendUvarint(k, uint64(ncands))
	if ncands > 0 {
		k = binary.AppendUvarint(k, uint64(len(mod.Pool)))
	}
	for _, f := range mod.Funcs {
		k = w.appendFunc(k, f, g.Candidates(f), c.ValFacts[f])
	}
	w.cbuf = k
	sum := sha256.Sum256(k)
	w.ckey = append(append(w.ckey[:0], codeTag), sum[:]...)
	return w.ckey
}

// flagByte packs up to eight flags into a byte, the first in bit 0.
func flagByte(bits ...bool) byte {
	var b byte
	for i, on := range bits {
		if on {
			b |= 1 << i
		}
	}
	return b
}

// Instruction encodings in a code key, by the tag that follows each.
const (
	instrPlain = iota // Imm
	instrCand         // a hoisting candidate: no value
	instrStr          // a string constant: its content
	instrWide         // a 128-bit constant: Imm and both words
)

// appendFunc appends function f as generated, its hoisting candidates cands
// (in emission order, which is value order) masked, and its pointer facts.
func (w *World) appendFunc(k []byte, f *qir.Func, cands []qir.Value, facts map[qir.Value]sa.PtrFact) []byte {
	k = qir.AppendFuncKey(k, f, func(k []byte, v qir.Value, in *qir.Instr) (uint64, []byte) {
		switch {
		case len(cands) > 0 && cands[0] == v:
			cands = cands[1:]
			return 0, append(k, instrCand)
		case in.Op == qir.OpConstStr:
			return 0, qir.AppendKeyString(append(k, instrStr), f.Module().Strings[in.Imm])
		case in.Op == qir.OpConst128:
			k = qir.AppendKeyInt(append(k, instrWide), f.I128[2*in.Imm])
			return uint64(in.Imm), qir.AppendKeyInt(k, f.I128[2*in.Imm+1])
		}
		return uint64(in.Imm), append(k, instrPlain)
	})
	vs := w.factVals[:0]
	for v := range facts {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	w.factVals = vs
	k = binary.AppendUvarint(k, uint64(len(vs)))
	for _, v := range vs {
		ft := facts[v]
		k = binary.LittleEndian.AppendUint32(k, uint32(v))
		k = binary.AppendVarint(k, ft.Pre)
		k = binary.AppendVarint(k, ft.Post)
		k = append(k, flagByte(ft.MaybeNull))
	}
	return k
}
