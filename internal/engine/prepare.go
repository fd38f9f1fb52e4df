package engine

import (
	"encoding/binary"
	"slices"
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
// plan and a constant pool. The program cache has two levels of its own: the
// plan level, keyed by the plan's shape, binds a plan to code, and the code
// level (code.go) holds code that more than one plan shape compiles to.

var (
	// engine.program_cache_evictions is counted where evictions happen, in pcc.
	obsProgramHits   = obs.NewCounter("engine.program_cache_hits")
	obsProgramMisses = obs.NewCounter("engine.program_cache_misses")
	obsProgramPinned = obs.NewCounter("engine.program_cache_pinned_mismatch")
)

// cachedProgram is what the cache keeps for one plan shape, the plan's
// binding to its code: which code runs the plan, with which kernels, and how
// that code reads the plan's literals. Literals are named by their ordinal in
// plan.Fingerprint.Lits, which equal keys make comparable across plans. The
// binding is charged for what it adds to its code.
type cachedProgram struct {
	// codeKey is the key of the code at the code level, and codeID the
	// code's identity there: the binding serves only the code it was bound
	// to, and names it by key so that code the cache evicts is not kept
	// alive.
	codeKey string
	codeID  uint64
	// pipes are the plan's pipelines, with its kernel programs.
	pipes []codegen.Pipeline
	nlits int
	// slotLit gives, per constant-pool slot, the literal whose value it holds.
	slotLit []int32
	// pinned lists the literals whose value the code or a kernel has compiled
	// in, with that value: the binding serves only plans that agree on them.
	// Every literal is pinned unless the generator reported that it reads it
	// from pool slots and nowhere else (codegen.Compiled.PoolLits, InlineLits).
	pinned []pinnedLit
	key    string // the cache key
}

type pinnedLit struct {
	lit   int32
	value qir.PoolConst
}

// Prepare takes a plan to a program: Lower + Compile, memoised on the plan's
// shape when the world has a code cache. The key is the engine, the module
// name, the options that change generated code, the check-elimination
// version and the plan with its literal values masked, tables by content
// (fingerprint). On a hit the cached program is returned with a constant pool
// built from this plan's literals; nothing is generated, analysed, compiled,
// linked or loaded, and the cached code is not touched. On a miss the plan's
// code is generated and looked up at the code level (code.go); only when that
// misses too is it finished and compiled. The binding is stored unless the
// pool cannot be rebuilt from the plan's literals. The engine goes into the
// key by name: two engines of one name are taken to compile a plan to
// interchangeable programs.
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
	if !w.fingerprint(fp, eng, name, node) {
		obsProgramMisses.Inc()
		return w.lowerCompile(eng, name, node)
	}
	w.vals = litValues(w.vals[:0], fp.Lits)
	if v, ok := cache.GetProgram(fp.Key); ok {
		if p := w.serve(v.(*cachedProgram), w.vals); p != nil {
			p.prepare = time.Since(start)
			return p, nil
		}
	}
	obsProgramMisses.Inc()
	g, err := codegen.Generate(name, node, w.Cat, w.Codegen())
	if err != nil {
		return nil, err
	}
	ckey := w.codeKey(g, eng, name)
	if v, ok := cache.GetProgram(ckey); !ok {
		obsCodeMisses.Inc()
	} else if p := w.serveCode(v.(*codeEntry), g, fp); p != nil {
		obsCodeHits.Inc()
		p.prepare = time.Since(start)
		return p, nil
	} else {
		obsCodeDeclines.Inc()
	}
	c, err := g.Finish()
	if err != nil {
		return nil, err
	}
	p, err := w.Compile(eng, c)
	if err != nil {
		return nil, err
	}
	code := newCodeEntry(p, w.DB)
	b, _ := bindPlan(code, c.PoolLits, c.InlineLits, c.Module.Pool, fp, w.vals, w.DB)
	if b == nil {
		return p, nil
	}
	if c.Hoist.KeptInline > 0 {
		// The code holds a value of this plan: only this plan shape may
		// reach it.
		ckey = w.ownCodeKey(ckey, fp)
	}
	w.codeIDs++
	code.key, code.id, code.slotCands = string(ckey), w.codeIDs, g.SlotCands()
	code.fixed = code.fixedFootprint()
	cache.PutProgram(code.key, code, code.footprint())
	w.storeBinding(b, code, c.Pipelines, fp)
	p.bind, p.code = b, code
	return p, nil
}

// storeBinding stores binding b of the plan fp describes to code, which runs
// it with the pipelines pipes, under the plan's key.
func (w *World) storeBinding(b *cachedProgram, code *codeEntry, pipes []codegen.Pipeline, fp *plan.Fingerprint) {
	b.codeKey, b.codeID, b.pipes, b.key = code.key, code.id, pipes, string(fp.Key)
	w.cache.PutProgram(b.key, b, b.footprint())
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

// serve returns the program binding b serves with the constant pool built
// from the literal values vals, or nil when it does not serve them or its
// code is no longer in the cache: evicted, or compiled again since.
func (w *World) serve(b *cachedProgram, vals []qir.PoolConst) *Program {
	v, ok := w.cache.GetProgram(append(w.ckey[:0], b.codeKey...))
	if !ok || v.(*codeEntry).id != b.codeID {
		return nil
	}
	code := v.(*codeEntry)
	pool, ok := b.poolFor(code, vals, w.DB)
	if !ok {
		return nil
	}
	obsProgramHits.Inc()
	w.Tracer.Add("prepare.hit", 1)
	return code.program(b, pool, true)
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
	k = append(k, byte(w.Arch), flagByte(w.Batch, w.ExecJobs > 1, w.Check))
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

// bindPlan binds the plan fp describes to code whose constant-pool slots
// hold, in order, the literals poolLits, and which holds the literals
// inlineLits some other way; pool is the pool the generator built for the
// plan. It returns the binding without its code, key or kernels, and the
// pool it builds from the plan's literal values vals — or nil when the code
// must not be cached: a pool slot or an inline literal the generator
// reported is not one of the plan's literals, or the pool rebuilt from the
// plan's literals is not pool. Either means the generator's report and the
// fingerprint disagree about the plan, and then no other plan may run this
// code.
func bindPlan(code *codeEntry, poolLits, inlineLits []plan.Expr, pool []qir.PoolConst,
	fp *plan.Fingerprint, vals []qir.PoolConst, db *rt.DB) (*cachedProgram, []qir.PoolConst) {
	if len(poolLits) != len(pool) {
		return nil, nil
	}
	b := &cachedProgram{nlits: len(fp.Lits), slotLit: make([]int32, len(pool))}
	param := make([]bool, len(fp.Lits))
	for s, lit := range poolLits {
		i, ok := fp.Ordinal(lit)
		if !ok {
			return nil, nil
		}
		b.slotLit[s] = int32(i)
		param[i] = true
	}
	for _, lit := range inlineLits {
		i, ok := fp.Ordinal(lit)
		if !ok {
			return nil, nil
		}
		param[i] = false
	}
	for i, v := range vals {
		if !param[i] {
			b.pinned = append(b.pinned, pinnedLit{int32(i), v})
		}
	}
	got, ok := b.poolFor(code, vals, db)
	if !ok || !slices.Equal(got, pool) {
		return nil, nil
	}
	return b, got
}

// poolFor builds the constant pool with which code executes the plan whose
// literals have the values vals — by ordinal, each encoded as
// codegen.PoolConstOf encodes it, the encoding the generator itself fills
// slots with — or reports that the binding does not serve that plan: a
// compiled-in literal has another value, or a baked string is no longer
// where the code expects it.
func (b *cachedProgram) poolFor(code *codeEntry, vals []qir.PoolConst, db *rt.DB) ([]qir.PoolConst, bool) {
	if len(vals) != b.nlits {
		return nil, false
	}
	for _, p := range b.pinned {
		if vals[p.lit] != p.value {
			obsProgramPinned.Inc()
			return nil, false
		}
	}
	if !code.stringsInPlace(db) {
		return nil, false
	}
	pool := make([]qir.PoolConst, len(b.slotLit))
	for s, lit := range b.slotLit {
		pool[s] = vals[lit]
	}
	return pool, true
}

// footprint is what the cache charges the binding: the Go heap it keeps
// alive apart from its code — its key, its tables and its kernels — and the
// spans it keeps in use (bindingSpans). The code is charged on its own
// (codeEntry.footprint), once however many plans it serves.
func (b *cachedProgram) footprint() int64 {
	return int64(unsafe.Sizeof(*b)) + int64(len(b.key)+len(b.codeKey)) + int64(len(b.slotLit))*4 +
		int64(len(b.pinned))*int64(unsafe.Sizeof(pinnedLit{})) + pipesFootprint(b.pipes) + bindingSpans
}

// bindingSpans is what a binding keeps of the heap in use beyond its bytes.
// A binding is a dozen small objects of as many size classes — its tables,
// key, pipelines and kernel nodes, the cache's list and map entries — that
// outlive the garbage of the statement that made them, each keeping a span
// of the heap in use. Charged its bytes alone, a 1 MiB cache of bindings to
// shared code held 4.7–5.1 MiB of heap in use (TestProgramCacheBudget,
// "shared code"); with 2 KiB on top 3.8–4.0 MiB, with 4 KiB 3.4–3.7 MiB.
// Copying a binding's kernels into one array per kernel made no difference.
const bindingSpans = 4 << 10
