package engine

import (
	"time"
	"unsafe"

	"qcc/internal/backend"
	"qcc/internal/obs"
	"qcc/internal/plan"
	"qcc/internal/rt"
	"qcc/internal/sql"
)

// The statement-shape level of the program cache. A program hit still used
// to parse its statement, plan it and walk the plan for its fingerprint, and
// parsing was the largest cost left on that path. Statements that differ
// only in literal values have the same sql.ShapeKey, so the cache keeps, per
// key, what parsing and fingerprinting produced for the first statement of
// that shape: the plan's key with literal values masked, the tables it scans,
// for each of its literals the statement literal it holds and the type the
// parser chose, the checks the parser's choices rest on, and the output
// column names. A later statement of the shape is bound from that: one scan
// of its text, each literal converted by sql.Convert as the parser converts
// it, the program key completed from the live catalog, and the program looked
// up. Shape entries share the programs' LRU and byte budget.
//
// Binding declines, and the statement takes the full path, whenever it
// cannot reproduce the parser exactly: a scanned table is not the one the
// shape was parsed against (re-created, or another row count, which the join
// planner reads), a literal does not convert to its recorded type, a check
// comes out otherwise, a pinned literal differs, or the program is gone.

var (
	obsShapeHits     = obs.NewCounter("engine.shape_cache_hits")
	obsShapeMisses   = obs.NewCounter("engine.shape_cache_misses")
	obsShapeDeclines = obs.NewCounter("engine.shape_cache_declines")
)

// shapeTag begins every shape key. A program key begins with the length of
// an engine's name, which is never 0, so the two kinds of key never meet.
const shapeTag = 0

// shapeEntry is what the cache keeps for one statement shape.
type shapeEntry struct {
	plan   string // the plan's fingerprint, literal values masked
	tables []shapeTable
	binder *sql.Binder
	cols   []string
	key    string
}

// shapeTable is a table the plan scans, as the catalog held it.
type shapeTable struct {
	name string
	t    *rt.Table
	rows int64
}

// PrepareSQL takes SQL text to a program and the names of its output
// columns: Parse + Prepare, through the statement-shape level when the world
// has a code cache. A statement of a shape the cache holds is bound without
// parsing; any other statement is parsed, prepared, and its shape stored once
// its program is in the cache. The names are shared with the cache; callers
// copy them.
func (w *World) PrepareSQL(eng backend.Engine, name, query string) (*Program, []string, error) {
	if w.cache == nil {
		node, err := w.Parse(query)
		if err != nil {
			return nil, nil, err
		}
		p, err := w.lowerCompile(eng, name, node)
		return p, columns(node), err
	}
	start := time.Now()
	key, lits, kerr := sql.ShapeKey(append(w.skey[:0], shapeTag), w.lits[:0], query)
	w.skey, w.lits = key, lits
	if kerr == nil {
		if v, ok := w.cache.GetProgram(key); ok {
			ent := v.(*shapeEntry)
			if p := w.bindShape(ent, eng, name, lits, start); p != nil {
				obsShapeHits.Inc()
				return p, ent.cols, nil
			}
			obsShapeDeclines.Inc()
		} else {
			obsShapeMisses.Inc()
		}
	}
	node, shape, err := sql.ParseShape(query, w.Cat)
	if err != nil {
		return nil, nil, err
	}
	p, err := w.Prepare(eng, name, node)
	if err != nil {
		return nil, nil, err
	}
	cols := columns(node)
	if kerr == nil && shape != nil && p.entry != nil {
		if ent := w.newShapeEntry(shape, cols, len(lits)); ent != nil {
			ent.key = string(key)
			w.cache.PutProgram(ent.key, ent, ent.footprint())
		}
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
// would give.
func (w *World) bindShape(ent *shapeEntry, eng backend.Engine, name string, lits []sql.Lit, start time.Time) *Program {
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
	k := append(w.keyPrefix(w.pkey[:0], eng, name), ent.plan...)
	for _, t := range ent.tables {
		k = appendTable(k, t.t)
	}
	w.pkey = k
	v, ok := w.cache.GetProgram(k)
	if !ok {
		return nil
	}
	return w.serve(v.(*cachedProgram), w.vals, start)
}

// newShapeEntry builds the shape entry of the plan Prepare fingerprinted
// last (w.fp), from the statement's Shape, or nil when a literal of the plan
// is none the parser recorded.
func (w *World) newShapeEntry(shape *sql.Shape, cols []string, nlits int) *shapeEntry {
	fp := &w.fp
	b := shape.Binder(fp.Lits, nlits)
	if b == nil {
		return nil
	}
	ent := &shapeEntry{plan: string(fp.Key[w.planAt[0]:w.planAt[1]]), binder: b, cols: cols}
	for _, name := range fp.Tables {
		t, err := w.Cat.Table(name)
		if err != nil {
			return nil
		}
		ent.tables = append(ent.tables, shapeTable{name: name, t: t, rows: t.Rows})
	}
	return ent
}

// footprint is what the cache charges a shape entry: its key, the plan's
// key, its tables, binder and column names.
func (e *shapeEntry) footprint() int64 {
	n := int64(unsafe.Sizeof(*e)) + int64(len(e.key)+len(e.plan)) +
		int64(len(e.tables))*int64(unsafe.Sizeof(shapeTable{})) + e.binder.Footprint() +
		int64(len(e.cols))*int64(unsafe.Sizeof(""))
	for _, c := range e.cols {
		n += int64(len(c))
	}
	return n
}
