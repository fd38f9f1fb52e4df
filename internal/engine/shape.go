package engine

import (
	"time"
	"unsafe"

	"qcc/internal/backend"
	"qcc/internal/codegen"
	"qcc/internal/obs"
	"qcc/internal/plan"
	"qcc/internal/rt"
	"qcc/internal/sql"
)

// The statement-shape level of the program cache. A program hit still used
// to parse its statement, plan it and walk the plan for its fingerprint, and
// parsing was the largest cost left on that path. Statements that differ
// only in literal values have the same sql.ShapeKey, so the cache keeps, per
// key — prefixed with the engine, the module name and the options that change
// code (keyPrefix) — the first such statement's binding to its code: which
// code runs it, with which kernels, and how that code reads the statement's
// literals; beside it, what parsing and fingerprinting produced: the tables
// the plan scans, for each of its literals the statement literal it holds and
// the type the parser chose, the checks the parser's choices rest on, and the
// output column names. A later statement of the shape is bound from that: one
// scan of its text, each literal converted by sql.Convert as the parser
// converts it, and the code looked up by its key. Shape entries share the
// code's LRU and byte budget.
//
// Binding declines, and the statement takes the full path, whenever it
// cannot reproduce the parser exactly or the code no longer serves it: a
// scanned table is not the one the shape was parsed against (re-created, or
// another row count, which the join planner reads and the code has compiled
// in), a literal does not convert to its recorded type, a check comes out
// otherwise, a pinned literal differs, or the code is gone.

var (
	obsShapeHits     = obs.NewCounter("engine.shape_cache_hits")
	obsShapeMisses   = obs.NewCounter("engine.shape_cache_misses")
	obsShapeDeclines = obs.NewCounter("engine.shape_cache_declines")
)

// shapeTag begins every shape key (see codeTag).
const shapeTag = 0

// shapeEntry is what the cache keeps for one statement shape: the plan's
// binding to its code and the statement's binder. The binding is charged for
// what it adds to its code.
type shapeEntry struct {
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

	tables []shapeTable
	binder *sql.Binder
	cols   []string
	key    string // the cache key
}

// shapeTable is a table the plan scans, as the catalog held it.
type shapeTable struct {
	name string
	t    *rt.Table
	rows int64
}

// PrepareSQL takes SQL text to a program and the names of its output
// columns: Parse + Lower + Compile, through the program cache when the world
// has a code cache. A statement of a shape the cache holds is bound without
// parsing; any other statement is parsed and prepared, and its binding stored
// under its shape. The names are shared with the cache; callers copy them.
// The program's CompileTime starts with all of this: text to executable,
// whichever path the statement took.
func (w *World) PrepareSQL(eng backend.Engine, name, query string) (*Program, []string, error) {
	start := time.Now()
	p, cols, err := w.prepareSQL(eng, name, query)
	if err == nil {
		p.prepare, p.compiled0 = time.Since(start), p.Stats.Total
	}
	return p, cols, err
}

func (w *World) prepareSQL(eng backend.Engine, name, query string) (*Program, []string, error) {
	if w.cache == nil {
		node, err := w.Parse(query)
		if err != nil {
			return nil, nil, err
		}
		p, err := w.lowerCompile(eng, name, node)
		return p, columns(node), err
	}
	key := w.keyPrefix(append(w.skey[:0], shapeTag), eng, name)
	key, lits, kerr := sql.ShapeKey(key, w.lits[:0], query)
	w.skey, w.lits = key, lits
	if kerr == nil {
		if v, ok := w.cache.GetProgram(key); !ok {
			obsShapeMisses.Inc()
		} else if p := w.bindShape(v.(*shapeEntry), lits); p != nil {
			obsShapeHits.Inc()
			return p, p.bind.cols, nil
		} else {
			obsShapeDeclines.Inc()
		}
	}
	node, shape, err := sql.ParseShape(query, w.Cat)
	if err != nil {
		return nil, nil, err
	}
	p, err := w.prepare(eng, name, node)
	if err != nil {
		return nil, nil, err
	}
	cols := columns(node)
	if ent := p.bind; kerr == nil && shape != nil && ent != nil && w.describe(ent, shape, len(lits)) {
		ent.cols, ent.key = cols, string(key)
		w.cache.PutProgram(ent.key, ent, ent.footprint())
	}
	return p, cols, nil
}

// columns lists the names of a plan's output columns.
func columns(node plan.Node) []string {
	var cols []string
	for _, c := range node.Schema() {
		cols = append(cols, c.Name)
	}
	return cols
}

// bindShape serves the statement whose literals are lits from shape entry
// ent, or returns nil when it cannot reproduce what parsing the statement
// would give or the code no longer serves it.
func (w *World) bindShape(ent *shapeEntry, lits []sql.Lit) *Program {
	sp := w.Tracer.BeginCat("prepare", "prepare")
	defer sp.End()
	for _, t := range ent.tables {
		if cur, err := w.Cat.Table(t.name); err != nil || cur != t.t || cur.Rows != t.rows {
			return nil
		}
	}
	vals, ok := ent.binder.Bind(w.vals[:0], lits)
	w.vals = vals
	if !ok {
		return nil
	}
	return w.serve(ent, vals)
}

// describe adds to binding ent the statement side of the plan prepare
// fingerprinted last (w.fp): the binder built from the statement's Shape and
// the tables the plan scans. It reports false when a literal of the plan is
// none the parser recorded.
func (w *World) describe(ent *shapeEntry, shape *sql.Shape, nlits int) bool {
	fp := &w.fp
	if ent.binder = shape.Binder(fp.Lits, nlits); ent.binder == nil {
		return false
	}
	for _, name := range fp.Tables {
		t, err := w.Cat.Table(name)
		if err != nil {
			return false
		}
		ent.tables = append(ent.tables, shapeTable{name: name, t: t, rows: t.Rows})
	}
	return true
}

// footprint is what the cache charges a shape entry: the Go heap it keeps
// alive apart from its code — its key, tables, kernels, binder and column
// names — and the spans it keeps in use (bindingSpans). The code is charged
// on its own (codeEntry.footprint), once however many shapes it serves.
func (e *shapeEntry) footprint() int64 {
	n := int64(unsafe.Sizeof(*e)) + int64(len(e.key)+len(e.codeKey)) + int64(len(e.slotLit))*4 +
		int64(len(e.pinned))*int64(unsafe.Sizeof(pinnedLit{})) + pipesFootprint(e.pipes) +
		int64(len(e.tables))*int64(unsafe.Sizeof(shapeTable{})) + e.binder.Footprint() +
		int64(len(e.cols))*int64(unsafe.Sizeof("")) + bindingSpans
	for _, c := range e.cols {
		n += int64(len(c))
	}
	return n
}

// bindingSpans is what a shape entry keeps of the heap in use beyond its
// bytes. An entry is a dozen small objects of as many size classes — its
// tables, keys, binder, pipelines and kernel nodes, the cache's list and map
// entries — that outlive the garbage of the statement that made them, each
// keeping a span of the heap in use. Charged its bytes alone, a 1 MiB cache of
// bindings to shared code held 4.7–5.1 MiB of heap in use
// (TestProgramCacheBudget, "shared code"); with 2 KiB on top 3.8–4.0 MiB,
// with 4 KiB 3.4–3.7 MiB, and 3.1–3.5 MiB once the binding and the shape
// entry were one. Copying a binding's kernels into one array per kernel made
// no difference.
const bindingSpans = 4 << 10
