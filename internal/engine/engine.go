// Package engine is the one query path. A request crosses it as explicit
// stages with explicit artifacts:
//
//	SQL text ── Parse ──▶ plan.Node ── Lower ──▶ *codegen.Compiled
//	    ── Compile ──▶ *Program (backend.Exec + *backend.Stats)
//	    ── Run ──▶ rows in World.DB.Out + vm counters ── Release ──▶ heap back at the mark
//
// all configured by one Options value. PrepareSQL is Parse + Lower + Compile
// memoised on the statement's shape and on the generated code (shape.go,
// code.go), the stage a request takes from text to program. The public qc
// package, every internal/bench experiment and every command under cmd/
// drive these stages and nothing else compiles or runs a query. What each
// copy of the sequence used to re-derive lives here once: the codegen.Options an execution mode
// implies, the parallel-driver and code-cache wrapper with its variant tag,
// the persistent executor worker pool, the mark → run → release heap
// discipline, and best-of-N timing.
package engine

import (
	"fmt"
	"strings"
	"time"

	"qcc/internal/backend"
	"qcc/internal/backend/adaptive"
	"qcc/internal/backend/cbe"
	"qcc/internal/backend/clift"
	"qcc/internal/backend/direct"
	"qcc/internal/backend/interp"
	"qcc/internal/backend/lbe"
	"qcc/internal/backend/pcc"
	"qcc/internal/codegen"
	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/sql"
	"qcc/internal/tpcds"
	"qcc/internal/tpch"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// World is one database — a virtual machine, its runtime and its catalog —
// together with the options its queries compile and run under and the
// resources that outlive a single query: the code cache and the executor's
// worker pool.
type World struct {
	Options
	DB  *rt.DB
	Cat *rt.Catalog

	cache     *pcc.Cache
	execPool  *codegen.ExecPool
	poolBuilt bool
	// bound is the executable whose runtime-call table the machine holds: a
	// back-end binds its module's table when it compiles, so running an
	// earlier program again needs a re-bind.
	bound backend.Exec
	// The program cache's scratch: the fingerprint of the plan at hand and
	// its literals' values; a statement's shape key and its literals.
	fp   plan.Fingerprint
	vals []qir.PoolConst
	skey []byte
	lits []sql.Lit
	// The code level's buffers: the encoded code and its key, the pointer
	// facts of a function, and a plan's candidate and pool-slot literals.
	cbuf, ckey      []byte
	factVals        []qir.Value
	cands, poolLits []plan.Expr
	codeIDs         uint64 // the last code entry's id
	mark            uint64 // heap position Release unwinds to, set by Run
}

// NewWorld creates an empty database on a machine of o.MemMB MiB.
func NewWorld(o Options) *World {
	db := rt.NewDB(vm.New(vm.Config{Arch: o.Arch, MemSize: o.MemMB << 20}))
	w := &World{Options: o, DB: db, Cat: rt.NewCatalog(db)}
	if o.CacheMB > 0 {
		w.cache = pcc.NewCache(int64(o.CacheMB) << 20)
	}
	return w
}

// Query is a named plan builder.
type Query struct {
	Name  string
	Build func() plan.Node
}

// Queries returns the named workload's suite ("tpch" or "tpcds").
func Queries(workload string) ([]Query, error) {
	var qs []Query
	switch workload {
	case "tpch":
		for _, q := range tpch.Queries() {
			qs = append(qs, Query(q))
		}
	case "tpcds":
		for _, q := range tpcds.Queries() {
			qs = append(qs, Query(q))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want tpch or tpcds)", workload)
	}
	return qs, nil
}

// Pick narrows qs to the query called name (case-insensitive); an empty name
// keeps them all.
func Pick(qs []Query, name string) ([]Query, error) {
	if name == "" {
		return qs, nil
	}
	var names []string
	for _, q := range qs {
		if strings.EqualFold(q.Name, name) {
			return []Query{q}, nil
		}
		names = append(names, q.Name)
	}
	return nil, fmt.Errorf("no query %q (have: %s)", name, strings.Join(names, " "))
}

// Load populates the named workload's schema at scale factor sf.
func (w *World) Load(workload string, sf float64) error {
	switch workload {
	case "tpch":
		return tpch.Load(w.Cat, sf)
	case "tpcds":
		return tpcds.Load(w.Cat, sf)
	}
	return fmt.Errorf("unknown workload %q (want tpch or tpcds)", workload)
}

// BackendNames lists the back-ends by their public names.
func BackendNames() []string {
	return []string{"interpreter", "directemit", "cranelift", "llvm-cheap", "llvm-opt", "gcc", "adaptive"}
}

// Backend returns a new instance of the named back-end, nil if there is none.
func Backend(name string) backend.Engine {
	switch name {
	case "interpreter":
		return interp.New()
	case "directemit":
		return direct.New()
	case "cranelift":
		return clift.New()
	case "llvm-cheap":
		return lbe.NewCheap()
	case "llvm-opt":
		return lbe.NewOpt()
	case "gcc":
		return cbe.New()
	case "adaptive":
		return adaptive.New()
	}
	return nil
}

// Backends returns the standard lineup for a target in Table III order: every
// single-tier back-end the architecture supports (DirectEmit is vx64-only).
func Backends(arch vt.Arch) []backend.Engine {
	var es []backend.Engine
	for _, name := range BackendNames() {
		if name == "adaptive" || (name == "directemit" && arch != vt.VX64) {
			continue
		}
		es = append(es, Backend(name))
	}
	return es
}

// Parse turns SQL text into a plan over the world's catalog.
func (w *World) Parse(query string) (plan.Node, error) {
	return sql.Parse(query, w.Cat)
}

// Lower generates the QIR module and driver metadata for a plan, with the
// code-generation strategy the world's execution mode implies.
func (w *World) Lower(name string, node plan.Node) (*codegen.Compiled, error) {
	return codegen.CompileOpts(name, node, w.Cat, w.Codegen())
}

// Program is a query compiled for one world, ready for one execution.
type Program struct {
	Compiled *codegen.Compiled
	Exec     backend.Exec
	// Stats is the back-end's account of the compilation. The adaptive
	// engine keeps adding its run-time promotions to it, so read the
	// compile time after running.
	Stats *backend.Stats
	// Pool holds the values Run binds to the constant pool. Compile sets it
	// to Compiled.Module.Pool; a program PrepareSQL serves from the cache shares
	// Compiled, Exec and Stats with every other execution of its plan shape
	// and carries the pool built from its own plan's literals.
	Pool []qir.PoolConst
	// Hit reports that PrepareSQL served the program from the cache: a
	// statement of a shape the cache holds.
	Hit bool
	// CodeHit reports that PrepareSQL generated the plan's code and served its
	// finished code and executable from the cache's code level: the plan
	// was new to the cache, its code was not.
	CodeHit bool
	// bind is the plan's binding to its code, stored under the statement's
	// shape, and code the code that holds Compiled and Exec, if the cache
	// holds them.
	bind *shapeEntry
	code *codeEntry
	// How long PrepareSQL's call took, and what Stats.Total read then.
	prepare, compiled0 time.Duration
}

// CompileTime is what compiling cost this execution; read it after running.
// For a program from PrepareSQL it is the time from text to executable on
// whatever path the statement took — parse, plan, Lower and the back-end on a
// miss; parse, plan, code generation and the code key on a code hit; scan,
// bind and lookup on a shape hit — plus whatever the program's back-end
// compiled since (the adaptive engine's run-time promotions). For any other
// program, the back-end's total.
func (p *Program) CompileTime() time.Duration {
	return p.prepare + p.Stats.Total - p.compiled0
}

// Env is the compilation environment back-ends see for this world.
func (w *World) Env() *backend.Env {
	return &backend.Env{DB: w.DB, Arch: w.Arch, Trace: w.Tracer,
		Options: backend.Options{Check: w.Check}}
}

// Compile runs one back-end over lowered code. With Jobs > 1 or a code cache
// the back-end goes through the parallel driver; the check-elimination pass
// version is part of every cache key, so entries compiled under different
// elimination semantics never collide.
func (w *World) Compile(eng backend.Engine, c *codegen.Compiled) (*Program, error) {
	jobs := w.Jobs
	if jobs < 1 {
		jobs = 1
	}
	if jobs > 1 || w.cache != nil {
		eng = pcc.Wrap(eng, pcc.Config{Jobs: jobs, Cache: w.cache, VariantTag: codegen.CheckElimVersion})
	}
	ex, stats, err := eng.Compile(c.Module, w.Env())
	if err != nil {
		return nil, err
	}
	if w.Tracer != nil {
		// Mirror the back-end's event counters into the trace so exports
		// show them as counter tracks alongside the spans.
		for name, v := range stats.Counters {
			w.Tracer.Add(name, v)
		}
	}
	w.bound = ex
	return &Program{Compiled: c, Exec: ex, Stats: stats, Pool: c.Module.Pool}, nil
}

// Checkpoint records the loaded state for ResetToCheckpoint. The worker pool
// is carved first: arenas above the checkpoint would be freed by the reset.
func (w *World) Checkpoint() {
	w.pool()
	w.DB.Checkpoint()
}

// pool returns the database's persistent executor workers, building them on
// first use; nil when the mode is sequential or the heap cannot fit the
// arenas (the executor then tries a pool for the one run, or runs
// sequentially).
func (w *World) pool() *codegen.ExecPool {
	if w.ExecJobs <= 1 {
		return nil
	}
	if !w.poolBuilt {
		w.execPool = codegen.NewExecPool(w.DB, w.ExecJobs, 0)
		w.poolBuilt = true
	}
	return w.execPool
}

// Run executes p once and returns the wall time of bind → run; rows land in
// w.DB.Out and the machine's counters advance. Call Release when done with
// the rows.
//
// The heap mark is taken after the constant pool is bound and the worker
// pool exists: strings the bind interns and the workers' arenas then sit
// below it and keep their addresses — which code cached across executions
// has baked in — while everything the execution itself allocates sits above.
// The executor binds the same values again, by then a lookup per string.
func (w *World) Run(p *Program) (time.Duration, error) {
	db := w.DB
	db.ResetQueryState()
	pool := w.pool()
	sp := w.Tracer.BeginCat("exec", "exec")
	start := time.Now()
	var err error
	if w.bound != p.Exec {
		if err = db.Bind(p.Compiled.Module.RTNames); err == nil {
			w.bound = p.Exec
		}
	}
	if err == nil {
		err = db.BindConstPool(p.Pool)
	}
	w.mark = db.M.HeapMark()
	if err == nil {
		err = codegen.RunParallel(db, w.Cat, p.Compiled, p.Exec.Call,
			codegen.ExecOptions{Jobs: w.ExecJobs, Module: backend.ModuleOf(p.Exec), Pool: pool, Consts: p.Pool})
	}
	d := time.Since(start)
	sp.End()
	// Executing grows an executable (codeEntry.footprint): charge the code
	// that holds it again.
	if c := p.code; c != nil {
		w.cache.ChargeProgram(c.key, c, c.footprint())
	}
	return d, err
}

// Release drops what the last Run produced — output rows, hash tables,
// vectors, the arenas of a pool built for that run — and returns the heap to
// its mark.
func (w *World) Release() {
	w.DB.ReleaseTo(w.mark)
}

// Measurement is one timed execution: its wall time and what it did.
type Measurement struct {
	Exec time.Duration
	Rows int
	// Executed, Branches and MemOps are vm instruction counts (all zero for
	// the interpreter, which runs by callback).
	Executed, Branches, MemOps int64
}

// Measure is Run + Release, keeping the row count and counter deltas.
func (w *World) Measure(p *Program) (Measurement, error) {
	m := w.DB.M
	executed, branches, memOps := m.Executed, m.Branches, m.MemOps
	d, err := w.Run(p)
	res := Measurement{
		Exec: d, Rows: w.DB.Out.NumRows(),
		Executed: m.Executed - executed, Branches: m.Branches - branches, MemOps: m.MemOps - memOps,
	}
	w.Release()
	return res, err
}

// BestOf calls run runs times (at least once) and returns the shortest
// duration.
func BestOf(runs int, run func() (time.Duration, error)) (time.Duration, error) {
	var best time.Duration
	for r := 0; r < runs || r == 0; r++ {
		d, err := run()
		if err != nil {
			return 0, err
		}
		if r == 0 || d < best {
			best = d
		}
	}
	return best, nil
}
