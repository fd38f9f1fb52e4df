package engine

import (
	"encoding/binary"
	"slices"

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
// those the program cache keeps the whole result: the generated code with its
// driver metadata and the linked, loaded executable. It has two levels of its
// own. The statement-shape level (shape.go) binds a statement to code and
// serves a constant variant without parsing it; the code level (code.go)
// holds code, keyed by what it was generated from, which more than one
// statement shape may compile to.

// engine.program_cache_evictions is counted where evictions happen, in pcc.
var obsProgramPinned = obs.NewCounter("engine.program_cache_pinned_mismatch")

type pinnedLit struct {
	lit   int32
	value qir.PoolConst
}

// prepare takes a plan to a program: Lower + Compile, through the code level
// when the world has a code cache. The plan's code is generated and looked up
// at the code level; only when that misses is it finished and compiled, and
// the code stored. The program carries the plan's binding to its code
// (Program.bind), which the statement-shape level stores, unless the pool
// cannot be rebuilt from the plan's literals. Literals are named by their
// ordinal in plan.Fingerprint.Lits, which w.fp holds afterwards.
func (w *World) prepare(eng backend.Engine, name string, node plan.Node) (*Program, error) {
	fp := &w.fp
	fp.Reset()
	if w.cache == nil || !fp.Write(node) {
		return w.lowerCompile(eng, name, node)
	}
	// The span wraps the compile spans; a statement-shape hit has none.
	sp := w.Tracer.BeginCat("prepare", "prepare")
	defer sp.End()
	w.vals = litValues(w.vals[:0], fp.Lits)
	g, err := codegen.Generate(name, node, w.Cat, w.Codegen())
	if err != nil {
		return nil, err
	}
	ckey := w.codeKey(g, eng, name)
	if v, ok := w.cache.GetProgram(ckey); !ok {
		obsCodeMisses.Inc()
	} else if p := w.serveCode(v.(*codeEntry), g, fp); p != nil {
		obsCodeHits.Inc()
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
	if c.Hoist.KeptInline > 0 {
		// The code holds a value of this plan: only this plan shape may
		// reach it.
		ckey = w.ownCodeKey(ckey, fp)
	}
	code := newCodeEntry(p, w.DB)
	w.codeIDs++
	code.key, code.id, code.slotCands = string(ckey), w.codeIDs, g.SlotCands()
	b, _ := bindPlan(code, c.Pipelines, c.PoolLits, c.InlineLits, c.Module.Pool, fp, w.vals, w.DB)
	if b == nil {
		return p, nil
	}
	code.fixed = code.fixedFootprint()
	w.cache.PutProgram(code.key, code, code.footprint())
	p.bind, p.code = b, code
	return p, nil
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

// serve returns the program that binding b serves with the constant pool
// built from the literal values vals, or nil when it does not serve them or
// its code is no longer in the cache: evicted, or compiled again since.
func (w *World) serve(b *shapeEntry, vals []qir.PoolConst) *Program {
	v, ok := w.cache.GetProgram(append(w.ckey[:0], b.codeKey...))
	if !ok || v.(*codeEntry).id != b.codeID {
		return nil
	}
	code := v.(*codeEntry)
	pool, ok := b.poolFor(code, vals, w.DB)
	if !ok {
		return nil
	}
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

// keyPrefix appends what a shape key and a code key hold besides the
// statement or the code: the engine, the module name, the options that
// change generated code and the check-elimination version. The engine goes
// in by name: two engines of one name are taken to compile a plan to
// interchangeable programs.
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

// bindPlan binds the plan fp describes, which runs with the pipelines pipes,
// to code whose constant-pool slots hold, in order, the literals poolLits,
// and which holds the literals inlineLits some other way; pool is the pool
// the generator built for the plan. It returns the binding without its
// statement (see World.describe), and the
// pool it builds from the plan's literal values vals — or nil when the code
// must not be cached: a pool slot or an inline literal the generator
// reported is not one of the plan's literals, or the pool rebuilt from the
// plan's literals is not pool. Either means the generator's report and the
// fingerprint disagree about the plan, and then no other plan may run this
// code.
func bindPlan(code *codeEntry, pipes []codegen.Pipeline, poolLits, inlineLits []plan.Expr, pool []qir.PoolConst,
	fp *plan.Fingerprint, vals []qir.PoolConst, db *rt.DB) (*shapeEntry, []qir.PoolConst) {
	if len(poolLits) != len(pool) {
		return nil, nil
	}
	b := &shapeEntry{codeKey: code.key, codeID: code.id, pipes: pipes,
		nlits: len(fp.Lits), slotLit: make([]int32, len(pool))}
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
func (b *shapeEntry) poolFor(code *codeEntry, vals []qir.PoolConst, db *rt.DB) ([]qir.PoolConst, bool) {
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
