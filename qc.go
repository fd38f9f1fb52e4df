// Package qc is the public interface to the query-compilation framework
// study: an embeddable analytical query engine whose queries are compiled
// to a virtual machine target by any of the back-ends analyzed in the paper
// — a bytecode interpreter, the single-pass DirectEmit compiler, a
// Cranelift-like framework, an LLVM-like framework (cheap and optimized
// modes, three instruction selectors), a GCC-style C pipeline, and the
// adaptive two-tier strategy.
//
//	db, _ := qc.Open()
//	db.LoadTPCH(0.05)
//	res, _ := db.Exec("SELECT l_returnflag, SUM(l_extendedprice) FROM lineitem GROUP BY l_returnflag")
//	for _, row := range res.Rows { fmt.Println(row) }
//
// Open takes six options and no others: WithArch, WithMemoryMB and WithEngine
// choose the machine and the default back-end; WithExecJobs and WithBatch the
// execution mode; WithCacheMB the code cache. None of them changes a result.
// By default an eligible scan pipeline — trap-free filters over one table
// feeding an aggregation or a hash-join build — runs as a batch-at-a-time
// kernel, and every other pipeline as compiled tuple-at-a-time code;
// WithBatch(false) compiles every pipeline.
package qc

import (
	"fmt"
	"time"

	"qcc/internal/backend"
	"qcc/internal/engine"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/tpcds"
	"qcc/internal/tpch"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// Arch selects the virtual target architecture.
type Arch = vt.Arch

// Architectures.
const (
	VX64 = vt.VX64
	VA64 = vt.VA64
)

// Option configures Open.
type Option func(*engine.Options)

// WithArch selects the target architecture (default VX64).
func WithArch(a Arch) Option { return func(o *engine.Options) { o.Arch = a } }

// WithMemoryMB sets the virtual machine memory size (default 512 MiB).
func WithMemoryMB(mb int) Option { return func(o *engine.Options) { o.MemMB = mb } }

// WithEngine selects the default execution back-end by name; see Engines.
func WithEngine(name string) Option { return func(o *engine.Options) { o.Engine = name } }

// WithExecJobs sets the morsel-parallel executor's worker count (default 1,
// sequential). Results are identical at any worker count — the executor
// merges partitions in deterministic morsel order.
func WithExecJobs(n int) Option { return func(o *engine.Options) { o.ExecJobs = n } }

// WithBatch toggles batch-at-a-time operator kernels for eligible scan
// pipelines (default on). A kernel reads the query's literals from the
// constant pool, so constant variants share one cached program as they do in
// tuple-at-a-time code. Results are identical either way; WithBatch(false)
// runs every pipeline as generated tuple-at-a-time code, which is what the
// paper's experiments measure.
func WithBatch(on bool) Option { return func(o *engine.Options) { o.Batch = on } }

// WithCacheMB enables the content-addressed compiled-code cache with the
// given budget in MiB (default 0, disabled). Constant hoisting parameterizes
// compiled bodies, so queries that differ only in literal constants share one
// cache entry; per-query hit/miss counts appear in Stats.CacheHits/
// CacheMisses. Engines without a cacheable per-function pipeline (the
// interpreter, the adaptive tier driver) run uncached.
func WithCacheMB(mb int) Option { return func(o *engine.Options) { o.CacheMB = mb } }

// DB is an in-memory analytical database instance.
type DB struct {
	w       *engine.World
	engines map[string]backend.Engine
	def     string
}

// Engines lists the available back-end names.
func Engines() []string { return engine.BackendNames() }

// Open creates a database.
func Open(opts ...Option) (*DB, error) {
	cfg := engine.Options{Arch: VX64, MemMB: 512, Engine: "adaptive", Batch: true}
	for _, o := range opts {
		o(&cfg)
	}
	d := &DB{w: engine.NewWorld(cfg), engines: map[string]backend.Engine{}, def: cfg.Engine}
	for _, name := range Engines() {
		d.engines[name] = engine.Backend(name)
	}
	if cfg.Arch != VX64 && (cfg.Engine == "directemit" || cfg.Engine == "adaptive") {
		d.def = "cranelift" // DirectEmit tiers are vx64-only
	}
	if _, ok := d.engines[d.def]; !ok {
		return nil, fmt.Errorf("qc: unknown engine %q", cfg.Engine)
	}
	return d, nil
}

// LoadTPCH populates the TPC-H analog schema at the given scale factor.
func (d *DB) LoadTPCH(sf float64) error { return tpch.Load(d.w.Cat, sf) }

// LoadTPCDS populates the TPC-DS analog schema at the given scale factor.
func (d *DB) LoadTPCDS(sf float64) error { return tpcds.Load(d.w.Cat, sf) }

// ColumnType is a column type for CreateTable.
type ColumnType = qir.Type

// Column types.
const (
	Int32   = qir.I32
	Int64   = qir.I64
	Decimal = qir.I128
	Float   = qir.F64
	Text    = qir.Str
)

// Column declares one column for CreateTable.
type Column struct {
	Name string
	Type ColumnType
}

// Table provides typed row insertion for a created table.
type Table struct {
	db  *DB
	tbl *rt.Table
	row int64
}

// CreateTable allocates a table with a fixed row capacity.
func (d *DB) CreateTable(name string, rows int64, cols ...Column) (t *Table, err error) {
	defer vm.CatchOOM(&err) // more rows than the machine's memory holds
	specs := make([]rt.ColSpec, len(cols))
	for i, c := range cols {
		specs[i] = rt.ColSpec{Name: c.Name, Type: c.Type}
	}
	return &Table{db: d, tbl: d.w.Cat.CreateTable(name, rows, specs...)}, nil
}

// Append adds one row; values must match the column declaration order and
// types (int64, float64, string, or qc.Dec for decimals).
func (t *Table) Append(values ...any) (err error) {
	defer vm.CatchOOM(&err) // a string longer than 12 bytes is stored out of line
	if t.row >= t.tbl.Rows {
		return fmt.Errorf("qc: table %s is full (%d rows)", t.tbl.Name, t.tbl.Rows)
	}
	if len(values) != len(t.tbl.Cols) {
		return fmt.Errorf("qc: %d values for %d columns", len(values), len(t.tbl.Cols))
	}
	for i, v := range values {
		col := &t.tbl.Cols[i]
		switch col.Type {
		case qir.I8, qir.I16, qir.I32, qir.I64:
			iv, ok := toInt64(v)
			if !ok {
				return fmt.Errorf("qc: column %s expects an integer", col.Name)
			}
			t.db.w.Cat.SetInt(col, t.row, iv)
		case qir.I128:
			switch x := v.(type) {
			case Dec:
				t.db.w.Cat.SetI128(col, t.row, rt.I128(x))
			default:
				iv, ok := toInt64(v)
				if !ok {
					return fmt.Errorf("qc: column %s expects a decimal", col.Name)
				}
				t.db.w.Cat.SetI128(col, t.row, rt.I128FromInt64(iv))
			}
		case qir.F64:
			fv, ok := v.(float64)
			if !ok {
				return fmt.Errorf("qc: column %s expects a float64", col.Name)
			}
			t.db.w.Cat.SetF64(col, t.row, fv)
		case qir.Str:
			sv, ok := v.(string)
			if !ok {
				return fmt.Errorf("qc: column %s expects a string", col.Name)
			}
			t.db.w.Cat.SetStr(col, t.row, sv)
		default:
			return fmt.Errorf("qc: unsupported column type %s", col.Type)
		}
	}
	t.row++
	return nil
}

func toInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int32:
		return int64(x), true
	case int64:
		return x, true
	}
	return 0, false
}

// Dec is a fixed-point decimal value (scale managed by the caller).
type Dec rt.I128

// DecFromInt builds a decimal from an integer.
func DecFromInt(v int64) Dec { return Dec(rt.I128FromInt64(v)) }

// Stats summarizes one query's compilation and execution.
type Stats struct {
	Engine string
	// CompileTime is the time from text to executable, on whatever path the
	// statement took: parsing, planning, code generation and the back-end
	// for a statement compiled now; scanning its text, binding its literals
	// and the cache lookup for one bound from a statement shape the database
	// has seen. It also holds what the adaptive engine compiles while the
	// statement runs, time ExecTime holds too.
	CompileTime time.Duration
	// ExecTime is the wall time of binding the constant pool and running the
	// program. Row materialization and the heap release are in neither.
	ExecTime  time.Duration
	Functions int
	CodeBytes int
	// CacheHits and CacheMisses count this query's compiled-unit cache
	// lookups (always zero unless Open got WithCacheMB).
	CacheHits   int64
	CacheMisses int64
	// ProgramHit reports that the whole program came from the cache: the
	// database had compiled this plan shape before, with other constants at
	// most. Functions and CodeBytes then describe the cached program, every
	// function counts as a cache hit and Phases is empty. A statement of a
	// new shape whose generated code the database has compiled before is not
	// a program hit, but is reported as one in all else: its code was
	// served from the cache, nothing was compiled.
	ProgramHit bool
	// Phases is the compile-time breakdown (phase name to duration).
	Phases map[string]time.Duration
}

// Result is a completed query.
type Result struct {
	// Columns are output column names (best-effort).
	Columns []string
	// Rows are stringified result rows in output order.
	Rows [][]string
	// Stats describes the compilation and execution.
	Stats Stats
}

// Exec parses, compiles (with the default engine) and runs a SQL query.
func (d *DB) Exec(query string) (*Result, error) {
	return d.ExecWith(d.def, query)
}

// ExecWith runs a query with a specific back-end.
func (d *DB) ExecWith(engineName, query string) (*Result, error) {
	eng, ok := d.engines[engineName]
	if !ok {
		return nil, fmt.Errorf("qc: unknown engine %q (have %v)", engineName, Engines())
	}
	p, cols, err := d.w.PrepareSQL(eng, "q", query)
	if err != nil {
		return nil, err
	}
	return d.run(eng, p, cols)
}

// run drives the query path's stages from a prepared program. CompileTime
// is read after execution (the adaptive engine adds its run-time promotions
// to it); ExecTime is the wall time of bind → run alone.
func (d *DB) run(eng backend.Engine, p *engine.Program, cols []string) (*Result, error) {
	execTime, err := d.w.Run(p)
	defer d.w.Release()
	if err != nil {
		return nil, err
	}
	stats := p.Stats

	res := &Result{Stats: Stats{
		Engine:      eng.Name(),
		CompileTime: p.CompileTime(),
		ExecTime:    execTime,
		Functions:   stats.Funcs,
		CodeBytes:   stats.CodeBytes,
		CacheHits:   stats.Counters["cache_hits"],
		CacheMisses: stats.Counters["cache_misses"],
		ProgramHit:  p.Hit,
		Phases:      map[string]time.Duration{},
	}}
	if p.Hit || p.CodeHit {
		// The shared Stats describe the compile that stored the code.
		res.Stats.CacheHits, res.Stats.CacheMisses = int64(stats.Funcs), 0
	} else {
		for _, p := range stats.Phases {
			res.Stats.Phases[p.Name] = p.Dur
		}
	}
	res.Columns = append(res.Columns, cols...)
	for _, row := range d.w.DB.Out.Rows {
		out := make([]string, len(row))
		for i, v := range row {
			out[i] = v.String()
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}
