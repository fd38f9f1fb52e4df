package engine

import (
	"encoding/binary"
	"time"
	"unsafe"

	"qcc/internal/backend"
	"qcc/internal/codegen"
	"qcc/internal/obs"
	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
)

// The program cache, the upper of the code cache's two levels. The unit cache
// (pcc) spares a function its back-end pipeline and leaves everything around
// the units to be done again: code generation, the static analysis, one key
// per function, link, module load, decode and fusion. Most statements a
// database sees are constant variants of a shape it has executed, and for
// those Prepare keeps the whole result: the generated code with its driver
// metadata and the linked, loaded executable. A hit costs one walk over the
// plan and a constant pool.

var (
	// engine.program_cache_evictions is counted where evictions happen, in pcc.
	obsProgramHits   = obs.NewCounter("engine.program_cache_hits")
	obsProgramMisses = obs.NewCounter("engine.program_cache_misses")
	obsProgramPinned = obs.NewCounter("engine.program_cache_pinned_mismatch")
)

// cachedProgram is what the cache keeps for one plan shape: the program, and
// how its code reads the plan's literals. Literals are named by their ordinal
// in plan.Fingerprint.Lits, which equal keys make comparable across plans.
type cachedProgram struct {
	compiled *codegen.Compiled
	exec     backend.Exec
	stats    *backend.Stats
	nlits    int
	// slotLit gives, per constant-pool slot, the literal whose value it holds.
	slotLit []int32
	// pinned lists the literals whose value the code has compiled in, with
	// that value: the program serves only plans that agree on them. Every
	// literal is pinned unless the generator reported that it reads it from
	// pool slots and nowhere else (codegen.Compiled.PoolLits, InlineLits).
	pinned []pinnedLit
	// strs lists the string constants left in the code. Back-ends bake their
	// machine address in, and the runtime forgets strings interned above a
	// released heap mark or a checkpoint.
	strs []bakedString
	// key is the cache key, fixed the heap the entry holds apart from the
	// executable, key included (footprint).
	key   string
	fixed int64
}

type pinnedLit struct {
	lit   int32
	value qir.PoolConst
}

type bakedString struct {
	s      string
	lo, hi uint64
}

// Prepare takes a plan to a program: Lower + Compile, memoised on the plan's
// shape when the world has a code cache. The key is the engine, the module
// name, the options that change generated code, the check-elimination
// version and the plan with its literal values masked, tables by content
// (fingerprint). On a hit the cached program is returned with a constant pool
// built from this plan's literals; nothing is generated, analysed, compiled,
// linked or loaded, and the cached code is not touched. On a miss the result
// of Lower + Compile is stored, unless its pool cannot be rebuilt from the
// plan's literals. The engine goes into the key by name: two engines of one
// name are taken to compile a plan to interchangeable programs.
func (w *World) Prepare(eng backend.Engine, name string, node plan.Node) (*Program, error) {
	cache := w.cache
	if cache == nil {
		return w.lowerCompile(eng, name, node)
	}
	// The span wraps a miss's compile spans; a hit has none, and says so.
	sp := w.Tracer.BeginCat("prepare", "prepare")
	defer sp.End()
	start := time.Now()
	fp := &w.fp
	keyed := w.fingerprint(fp, eng, name, node)
	if keyed {
		w.vals = litValues(w.vals[:0], fp.Lits)
		if v, ok := cache.GetProgram(fp.Key); ok {
			if p := w.serve(v.(*cachedProgram), w.vals); p != nil {
				p.prepare = time.Since(start)
				return p, nil
			}
		}
	}
	obsProgramMisses.Inc()
	p, err := w.lowerCompile(eng, name, node)
	if err == nil && keyed {
		if ent := newCachedProgram(p, fp, w.vals, w.DB); ent != nil {
			cache.PutProgram(ent.key, ent, ent.footprint())
			p.entry = ent
		}
	}
	return p, err
}

// litValues appends the value of each literal, encoded as
// codegen.PoolConstOf encodes it.
func litValues(vals []qir.PoolConst, lits []plan.Expr) []qir.PoolConst {
	for _, lit := range lits {
		v, _ := codegen.PoolConstOf(lit)
		vals = append(vals, v)
	}
	return vals
}

// serve returns the cached program ent with the constant pool built from
// the literal values vals, or nil when ent does not serve them.
func (w *World) serve(ent *cachedProgram, vals []qir.PoolConst) *Program {
	pool, ok := ent.poolFor(vals, w.DB)
	if !ok {
		return nil
	}
	obsProgramHits.Inc()
	w.Tracer.Add("prepare.hit", 1)
	return &Program{Compiled: ent.compiled, Exec: ent.exec, Stats: ent.stats, Pool: pool,
		Hit: true, entry: ent, compiled0: ent.stats.Total}
}

func (w *World) lowerCompile(eng backend.Engine, name string, node plan.Node) (*Program, error) {
	c, err := w.Lower(name, node)
	if err != nil {
		return nil, err
	}
	return w.Compile(eng, c)
}

// fingerprint writes the cache key for the plan into fp and lists the plan's
// literals there. It reports false for a plan that cannot be keyed: one with
// a node the canonical form does not cover, or a scan of an unknown table.
//
// A table goes in by content — its row count and every column's type and
// address — because that is what the code has compiled in: column addresses
// as immediates, the row count as a proven bound of unchecked loads. Dropping
// and re-creating a table under its name therefore misses without any
// invalidation, and the old entries age out of the LRU.
func (w *World) fingerprint(fp *plan.Fingerprint, eng backend.Engine, name string, node plan.Node) bool {
	fp.Reset()
	fp.Key = w.keyPrefix(fp.Key, eng, name)
	w.planAt[0] = len(fp.Key)
	if !fp.Write(node) {
		return false
	}
	w.planAt[1] = len(fp.Key)
	for _, name := range fp.Tables {
		t, err := w.Cat.Table(name)
		if err != nil {
			return false
		}
		fp.Key = appendTable(fp.Key, t)
	}
	return true
}

// keyPrefix appends what a program key holds besides the plan: the engine,
// the module name, the options that change generated code and the
// check-elimination version.
func (w *World) keyPrefix(k []byte, eng backend.Engine, name string) []byte {
	k = appendString(k, eng.Name())
	k = appendString(k, name)
	var flags byte
	for i, on := range []bool{w.Batch, w.ExecJobs > 1, w.Check} {
		if on {
			flags |= 1 << i
		}
	}
	k = append(k, byte(w.Arch), flags)
	return appendString(k, codegen.CheckElimVersion)
}

// appendTable appends a table's content: its row count and every column's
// type and address.
func appendTable(k []byte, t *rt.Table) []byte {
	k = binary.AppendUvarint(k, uint64(t.Rows))
	k = binary.AppendUvarint(k, uint64(len(t.Cols)))
	for i := range t.Cols {
		k = append(k, byte(t.Cols[i].Type))
		k = binary.AppendUvarint(k, t.Cols[i].Base)
	}
	return k
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// newCachedProgram builds the cache entry for p, compiled from the plan fp
// describes, or nil when p must not be cached: a pool slot or an inline
// literal the generator reported is not one of the plan's literals, or the
// pool rebuilt from the plan's literals is not the pool the generator built.
// Either means the generator's report and the fingerprint disagree about the
// plan, and then no other plan may run this code.
func newCachedProgram(p *Program, fp *plan.Fingerprint, vals []qir.PoolConst, db *rt.DB) *cachedProgram {
	c := p.Compiled
	mod := c.Module
	if len(c.PoolLits) != len(mod.Pool) {
		return nil
	}
	ent := &cachedProgram{compiled: c, exec: p.Exec, stats: p.Stats, nlits: len(fp.Lits),
		slotLit: make([]int32, len(mod.Pool))}
	param := make([]bool, len(fp.Lits))
	for s, lit := range c.PoolLits {
		i, ok := fp.Ordinal(lit)
		if !ok {
			return nil
		}
		ent.slotLit[s] = int32(i)
		param[i] = true
	}
	for _, lit := range c.InlineLits {
		i, ok := fp.Ordinal(lit)
		if !ok {
			return nil
		}
		param[i] = false
	}
	for i, v := range vals {
		if !param[i] {
			ent.pinned = append(ent.pinned, pinnedLit{int32(i), v})
		}
	}
	seen := make([]bool, len(mod.Strings))
	for _, f := range mod.Funcs {
		for i := range f.Instrs {
			if in := &f.Instrs[i]; in.Op == qir.OpConstStr && !seen[in.Imm] {
				seen[in.Imm] = true
				s := mod.Strings[in.Imm]
				lo, hi := db.InternString(s)
				ent.strs = append(ent.strs, bakedString{s, lo, hi})
			}
		}
	}
	pool, ok := ent.poolFor(vals, db)
	if !ok || len(pool) != len(mod.Pool) {
		return nil
	}
	for s := range pool {
		if pool[s] != mod.Pool[s] {
			return nil
		}
	}
	ent.key = string(fp.Key)
	ent.fixed = ent.fixedFootprint()
	return ent
}

// poolFor builds the constant pool with which the cached code executes the
// plan whose literals have the values vals — by ordinal, each encoded as
// codegen.PoolConstOf encodes it, the encoding the generator itself fills
// slots with — or reports that the code does not serve that plan: a
// compiled-in literal has another value, or a baked string is no longer
// where the code expects it.
func (e *cachedProgram) poolFor(vals []qir.PoolConst, db *rt.DB) ([]qir.PoolConst, bool) {
	if len(vals) != e.nlits {
		return nil, false
	}
	for _, p := range e.pinned {
		if vals[p.lit] != p.value {
			obsProgramPinned.Inc()
			return nil, false
		}
	}
	for i := range e.strs {
		if lo, hi := db.InternString(e.strs[i].s); lo != e.strs[i].lo || hi != e.strs[i].hi {
			return nil, false
		}
	}
	pool := make([]qir.PoolConst, len(e.slotLit))
	for s, lit := range e.slotLit {
		pool[s] = vals[lit]
	}
	return pool, true
}

// footprint is what the cache charges the entry: the Go heap it keeps alive —
// its key, the QIR module, the batch kernels' specs and the entry's own tables
// (fixed, summed once) and the executable, which grows after it is stored:
// the first call builds a vm module's fused view (charged by estimate until
// then), and the adaptive engine adds its optimized module when it promotes.
// Run therefore charges the entry again after every execution.
// Module and executable report their backing arrays (qir.Module.Footprint,
// backend.FootprintOf: code image, decoded program, offset tables, fused view,
// or the interpreter's bytecode).
// Measured by storing 400 distinct three-predicate shapes in an unbounded
// cache and comparing the charge, units included, with the growth of the live
// heap after a collection: the charge is 0.88 (interpreter) to 1.12
// (Cranelift) times the growth, per engine. TestProgramCacheBudget holds the
// sum to the heap in use.
func (e *cachedProgram) footprint() int64 {
	return e.fixed + backend.FootprintOf(e.exec)
}

func (e *cachedProgram) fixedFootprint() int64 {
	n := int64(len(e.key)) + e.compiled.Module.Footprint() +
		int64(len(e.compiled.Pipelines))*int64(unsafe.Sizeof(codegen.Pipeline{})) +
		int64(len(e.slotLit))*4 + int64(len(e.pinned))*int64(unsafe.Sizeof(pinnedLit{})) +
		int64(len(e.strs))*int64(unsafe.Sizeof(bakedString{}))
	for i := range e.strs {
		n += int64(len(e.strs[i].s))
	}
	for i := range e.compiled.Pipelines {
		if k := e.compiled.Pipelines[i].Kernel; k != nil {
			n += k.Footprint()
		}
	}
	return n
}
