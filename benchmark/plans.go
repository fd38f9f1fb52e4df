package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"qcc/internal/backend"
	"qcc/internal/bench"
	"qcc/internal/codegen"
	"qcc/internal/obs"
	"qcc/internal/plan"
	"qcc/internal/rt"
	"qcc/internal/tpcds"
	"qcc/internal/tpch"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// planSpec describes one of the three workloads that start from hand-built
// plans: which suite, at what size, compiled and executed how.
type planSpec struct {
	name    string
	dataset string // "tpch" or "tpcds"
	sf      float64
	quickSF float64
	memMB   int
	opts    codegen.Options
	// parallel executes through codegen.RunParallel with a persistent
	// worker pool instead of codegen.Run.
	parallel bool
}

const (
	execJobs = 2 // the sizing box has two cores; more workers oversubscribe it
	// arenaMB is the per-worker heap. The program's default of 4 MiB makes
	// TPC-H q5 fail intermittently with two workers.
	arenaMB = 64
)

var planSpecs = map[string]planSpec{
	"compile_tpcds": {name: "compile_tpcds", dataset: "tpcds", sf: 0.01, quickSF: 0.01, memMB: 128,
		opts: codegen.Options{Elim: true, Hoist: true}},
	"exec_tpch": {name: "exec_tpch", dataset: "tpch", sf: 0.3, quickSF: 0.01, memMB: 256,
		opts: codegen.Options{Elim: true, Hoist: true}},
	"exec_tpch_batchpar": {name: "exec_tpch_batchpar", dataset: "tpch", sf: 0.3, quickSF: 0.01, memMB: 384,
		opts: codegen.Options{Elim: true, Hoist: true, Batch: true, Parallel: true}, parallel: true},
}

// loadWorld creates a machine for arch and loads one data set into it.
func loadWorld(arch vt.Arch, memMB int, dataset string, sf float64) (*bench.World, error) {
	w := bench.NewWorld(bench.Config{Arch: arch, MemMB: memMB})
	if dataset == "tpcds" {
		return w, tpcds.Load(w.Cat, sf)
	}
	return w, tpch.Load(w.Cat, sf)
}

// planWorld is everything one plan workload runs against.
type planWorld struct {
	spec planSpec
	*bench.World
	pool    *codegen.ExecPool
	engines []backend.Engine
	queries []bench.Query
	gold    *golden
	loadS   float64
	// va is a second copy of the data on va64, loaded for traced runs only,
	// where the portable engines are also timed compiling for it.
	va *bench.World
}

func (s planSpec) scale(cfg runConfig) float64 {
	if cfg.Quick {
		return s.quickSF
	}
	return s.sf
}

func newPlanWorld(spec planSpec, cfg runConfig) (*planWorld, error) {
	sf := spec.scale(cfg)
	w := &planWorld{spec: spec, engines: bench.Engines(vt.VX64)}
	t0 := time.Now()
	var err error
	if w.World, err = loadWorld(vt.VX64, spec.memMB, spec.dataset, sf); err != nil {
		return nil, err
	}
	w.loadS = time.Since(t0).Seconds()
	if spec.dataset == "tpcds" {
		w.queries = bench.DSQueries()
		if cfg.Quick { // every fourth query still covers all eight families
			var some []bench.Query
			for i := 0; i < len(w.queries); i += 4 {
				some = append(some, w.queries[i])
			}
			w.queries = some
		}
	} else {
		w.queries = bench.HQueries()
	}
	if spec.parallel {
		// Built before the checkpoint so the arenas survive each query's
		// ResetToCheckpoint.
		if w.pool = codegen.NewExecPool(w.DB, execJobs, arenaMB); w.pool == nil {
			return nil, fmt.Errorf("%s: machine too small for %d worker arenas of %d MiB", spec.name, execJobs, arenaMB)
		}
	}
	w.DB.Checkpoint()
	if w.gold, err = loadGolden(spec.dataset, sf); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *planWorld) execute(c *codegen.Compiled, ex backend.Exec) error {
	if !w.spec.parallel {
		return codegen.Run(w.DB, w.Cat, c, ex.Call)
	}
	return codegen.RunParallel(w.DB, w.Cat, c, ex.Call,
		codegen.ExecOptions{Jobs: execJobs, Module: vmModule(ex), ArenaMB: arenaMB, Pool: w.pool})
}

// vmModule returns the vm module behind a compiled query, nil for the
// interpreter (which has none and therefore always runs sequentially).
func vmModule(ex backend.Exec) *vm.Module {
	if mh, ok := ex.(interface{ Module() *vm.Module }); ok {
		return mh.Module()
	}
	return nil
}

// The process-wide counters the traced pass reads around single calls.
var (
	ctrHoistRounds = obs.NewCounter("hoist.analysis_rounds")
	ctrBatchCalls  = obs.NewCounter("rt_batch_kernel_calls")
	ctrBatchRows   = obs.NewCounter("rt_batch_rows")
	ctrMorsels     = obs.NewCounter("exec_morsels")
	ctrWorkers     = obs.NewCounter("exec_workers")
	ctrPoolReuses  = obs.NewCounter("exec_pool_reuses")
)

// op takes one query from plan to verified rows on one engine: build plan,
// generate QIR, compile, execute, stop the clock, then check the rows and
// release the query's memory. An Exec is valid only until the next Compile
// on the same rt.DB, so this is the only order a pass can run in. With a
// layers accumulator it also records the traced pass's spans and counters.
func (w *planWorld) op(ei int, q bench.Query, rec *recorder, L *layers, probeVA bool) (compile, exec time.Duration, err error) {
	defer w.DB.ResetToCheckpoint()
	var c *codegen.Compiled
	var genDur time.Duration
	var lines []string
	err = guard(func() error {
		eng := w.engines[ei]
		heap0 := w.DB.M.HeapMark()
		qs := rec.begin("query")
		defer rec.end(qs)

		t0 := time.Now()
		sp := rec.begin("plan.build")
		node := q.Build()
		rec.end(sp)
		t1 := time.Now()
		rounds0 := ctrHoistRounds.Load()
		sp = rec.begin("codegen.compile")
		var err error
		c, err = codegen.CompileOpts(q.Name, node, w.Cat, w.spec.opts)
		rec.end(sp)
		if err != nil {
			return err
		}
		t2 := time.Now()
		genDur = t2.Sub(t1)
		rounds := ctrHoistRounds.Load() - rounds0
		backendSpan := rec.begin("backend.compile")
		ex, stats, err := eng.Compile(c.Module, &backend.Env{DB: w.DB, Arch: vt.VX64})
		rec.end(backendSpan)
		if err != nil {
			return err
		}
		t3 := time.Now()
		compile = t3.Sub(t0)
		if L != nil {
			// Run binds the pool itself; binding here first puts a span
			// around it, and the second bind repeats a few stores.
			sp = rec.begin("rt.bind_pool")
			err = w.DB.BindConstPool(c.Module.Pool)
			rec.end(sp)
			if err != nil {
				return err
			}
			L.addDur("rt.bind_pool_us", time.Since(t3), time.Microsecond)
		}
		before := snapExec(w.DB.M)
		sp = rec.begin("exec.run")
		t4 := time.Now()
		err = w.execute(c, ex)
		exec = time.Since(t4)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin("rows.materialize")
		lines = w.DB.Out.Canonical()
		rec.end(sp)
		if L == nil {
			return nil
		}
		L.addDur("plan.build_us", t1.Sub(t0), time.Microsecond)
		L.add("plan.nodes", float64(countNodes(node)))
		recordBackend(L, rec, ei, backendSpan, stats, t3.Sub(t2))
		before.record(L, ei, w.DB.M, ex, exec, w.spec.parallel)
		L.add("rt.out_rows", float64(len(lines)))
		L.add("rt.heap_kb_per_query", float64(w.DB.M.HeapMark()-heap0)/1024)
		recordCodegen(L, c, rounds)
		return nil
	})
	if err != nil {
		return compile, exec, fmt.Errorf("%s/%s: %w", engineKeys[ei], q.Name, err)
	}
	if err := w.gold.check(q.Name, digestOf(lines)); err != nil {
		return compile, exec, fmt.Errorf("%s/%w", engineKeys[ei], err)
	}
	if L != nil {
		err = guard(func() error { return w.probes(ei, q, rec, L, genDur, probeVA) })
	}
	return compile, exec, err
}

// recordBackend notes one back-end compilation: its wall time, code size and
// the phases the engine reports, which also become child spans.
func recordBackend(L *layers, rec *recorder, ei int, span int32, stats *backend.Stats, dur time.Duration) {
	e := "backend." + engineKeys[ei] + "."
	L.addDur(e+"compile_ms", dur, time.Millisecond)
	L.add(e+"code_bytes", float64(stats.CodeBytes))
	for _, p := range stats.Phases {
		L.addDur(e+"phase."+p.Name+"_ms", p.Dur, time.Millisecond)
	}
	rec.attach(span, stats.Phases)
}

// execSnap holds the counters an execution moves, read just before it.
type execSnap struct {
	instrs, branches, memOps    int64
	batchCalls, batchRows       int64
	morsels, workers, poolReuse int64
}

func snapExec(m *vm.Machine) execSnap {
	return execSnap{m.Executed, m.Branches, m.MemOps, ctrBatchCalls.Load(), ctrBatchRows.Load(),
		ctrMorsels.Load(), ctrWorkers.Load(), ctrPoolReuses.Load()}
}

// record notes what one execution did since the snapshot. The interpreter
// runs by callback and moves no vm counter.
func (s execSnap) record(L *layers, ei int, m *vm.Machine, ex backend.Exec, exec time.Duration, parallel bool) {
	e := "backend." + engineKeys[ei] + "."
	instrs := float64(m.Executed - s.instrs)
	L.addDur(e+"exec_ms", exec, time.Millisecond)
	L.add(e+"vm_instrs", instrs)
	L.add("vm.instrs", instrs)
	L.add("vm.branches", float64(m.Branches-s.branches))
	L.add("vm.mem_ops", float64(m.MemOps-s.memOps))
	if mod := vmModule(ex); mod != nil {
		L.addDur("vm.exec_us", exec, time.Microsecond)
		if mod.FuseEnabled() {
			fs := mod.FuseStats()
			L.add("fuse.instrs", float64(fs.Instrs))
			L.add("fuse.micro_ops", float64(fs.MicroOps))
		}
	}
	L.add("vm.heap_used_mb", float64(m.HeapUsed())/(1<<20))
	L.add("rt.batch_kernel_calls", float64(ctrBatchCalls.Load()-s.batchCalls))
	L.add("rt.batch_rows", float64(ctrBatchRows.Load()-s.batchRows))
	L.add("codegen.exec_morsels", float64(ctrMorsels.Load()-s.morsels))
	L.add("codegen.exec_workers", float64(ctrWorkers.Load()-s.workers))
	L.add("codegen.exec_pool_reuses", float64(ctrPoolReuses.Load()-s.poolReuse))
	if parallel {
		L.addDur("codegen.run_parallel_ms", exec, time.Millisecond)
	} else {
		L.addDur("codegen.run_ms", exec, time.Millisecond)
	}
}

// recordCodegen notes what the code generator and its passes report about
// one compiled query.
func recordCodegen(L *layers, c *codegen.Compiled, hoistRounds int64) {
	instrs, batch := 0, 0
	for _, f := range c.Module.Funcs {
		instrs += f.NumInstrs()
	}
	for _, p := range c.Pipelines {
		if p.Batch {
			batch++
		}
	}
	L.add("codegen.qir_instrs", float64(instrs))
	L.add("codegen.funcs", float64(c.NumFuncs))
	L.add("codegen.pipelines", float64(len(c.Pipelines)))
	L.add("codegen.batch_pipelines", float64(batch))
	L.add("codegen.hoist_candidates", float64(c.Hoist.Candidates))
	L.add("codegen.hoisted", float64(c.Hoist.Hoisted))
	L.add("codegen.hoist_rounds", float64(hoistRounds))
	L.add("sa.mem_ops", float64(c.Elim.MemOps))
	L.add("sa.checks_eliminated", float64(c.Elim.Unchecked))
	L.addDur("sa.analysis_us", time.Duration(c.Elim.AnalysisNs), time.Microsecond)
}

// probeCodegen times code generation at two option levels below full: the
// generator alone, then with check elimination; the full level was timed as
// fullDur. The differences are the cost of each pass as the full level runs
// it: hoisting decides what to hoist by re-running the sa analysis, which it
// does only when check elimination is on, so its cost shows against the
// elimination level and not against the bare generator.
func probeCodegen(rec *recorder, L *layers, name string, build func() plan.Node, cat *rt.Catalog, full codegen.Options, fullDur time.Duration) error {
	level := full
	level.Elim, level.Hoist = false, false
	var durs [2]time.Duration
	for i, spanName := range []string{"codegen.qirgen", "codegen.qirgen+elim"} {
		level.Elim = i == 1 && full.Elim
		node := build()
		t0 := time.Now()
		if _, err := codegen.CompileOpts(name, node, cat, level); err != nil {
			return err
		}
		durs[i] = time.Since(t0)
		rec.probe(spanName, t0, durs[i])
	}
	L.addDur("codegen.qirgen_us", durs[0], time.Microsecond)
	L.addDur("sa.elim_us", durs[1]-durs[0], time.Microsecond)
	L.addDur("codegen.hoist_us", fullDur-durs[1], time.Microsecond)
	return nil
}

// probes runs the measurements a traced operation takes beside the query
// path, after its clock has stopped.
func (w *planWorld) probes(ei int, q bench.Query, rec *recorder, L *layers, genDur time.Duration, probeVA bool) error {
	if err := probeCodegen(rec, L, q.Name, q.Build, w.Cat, w.spec.opts, genDur); err != nil {
		return err
	}
	if !probeVA || !portable[ei] {
		return nil
	}
	return probeVA64(rec, L, ei, w.engines[ei], w.va, q.Name, q.Build(), w.spec.opts)
}

// probeVA64 compiles one query for the other architecture on its own
// machine.
func probeVA64(rec *recorder, L *layers, ei int, eng backend.Engine, va *bench.World, name string, node plan.Node, opts codegen.Options) error {
	defer va.DB.ResetToCheckpoint()
	c, err := codegen.CompileOpts(name, node, va.Cat, opts)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, _, err := eng.Compile(c.Module, &backend.Env{DB: va.DB, Arch: vt.VA64}); err != nil {
		return err
	}
	d := time.Since(t0)
	rec.probe("backend.compile.va64", t0, d)
	L.addDur("backend."+engineKeys[ei]+".va64_compile_ms", d, time.Millisecond)
	return nil
}

func countNodes(n plan.Node) int {
	total := 1
	for _, c := range n.Children() {
		total += countNodes(c)
	}
	return total
}

// pass runs every engine over every query once, engines outermost, queries
// in the seeded order.
func (w *planWorld) pass(order []int, t *tally, rec *recorder, L *layers, probeVA bool) {
	t.beginPass()
	for ei := range w.engines {
		runtime.GC() // between engine blocks, outside every timed region
		for _, qi := range order {
			compile, exec, err := w.op(ei, w.queries[qi], rec, L, probeVA)
			t.add(ei, compile, exec, err)
		}
	}
}

// runPlans runs one plan workload: set up (several times, for a median),
// then timed passes until the time is up; a traced run spends the second
// half of its time on traced passes.
func runPlans(spec planSpec, cfg runConfig) (*result, error) {
	sf := spec.scale(cfg)
	var w *planWorld
	var order []int
	warm := newTally(len(engineKeys))
	setup := func() error {
		w = nil
		var err error
		if w, err = newPlanWorld(spec, cfg); err != nil {
			return err
		}
		order = rand.New(rand.NewSource(cfg.Seed)).Perm(len(w.queries))
		w.pass(order, warm, nil, nil, false) // untimed warm-up, charged to set-up
		return nil
	}
	setupS, err := timeSetup(setup)
	if err != nil {
		return nil, err
	}

	t := newTally(len(engineKeys))
	timedFor := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		timedFor /= 2
	}
	alloc0 := totalAllocMB()
	for start := time.Now(); len(t.passWall) == 0 || time.Since(start) < timedFor; {
		w.pass(order, t, nil, nil, false)
	}
	info := map[string]any{"sf": sf, "passes": len(t.passWall), "samples": len(t.latency),
		"queries": len(w.queries), "engines": len(w.engines)}
	if !cfg.Trace {
		if setupS, err = typicalSetup(cfg.setups(), []float64{setupS}, setup); err != nil {
			return nil, err
		}
		res := newResult(info, warm, t)
		res.Metrics = t.endToEndMetrics(setupS)
		return res, nil
	}

	allocPerPass := (totalAllocMB() - alloc0) / float64(len(t.passWall))
	if w.va, err = loadWorld(vt.VA64, spec.memMB, spec.dataset, sf); err != nil {
		return nil, err
	}
	w.va.DB.Checkpoint()
	rec, L, traced := newRecorder(), newLayers(), newTally(len(engineKeys))
	firstPassSpans := 0
	for start := time.Now(); len(traced.passWall) == 0 || time.Since(start) < timedFor; {
		w.pass(order, traced, rec, L, len(traced.passWall) == 0)
		if firstPassSpans == 0 {
			firstPassSpans = len(rec.spans)
		}
	}
	res := newResult(info, warm, t, traced)
	extra := map[string]float64{
		"bench.alloc_mb_per_pass": allocPerPass,
		spec.dataset + ".load_s":  w.loadS,
	}
	if tbl, err := w.Cat.Table("lineitem"); err == nil {
		extra["tpch.lineitem_rows"] = float64(tbl.Rows)
	}
	finishTrace(res, cfg, spec.name, rec, firstPassSpans, L, extra, t, traced)
	return res, nil
}

// finishTrace derives the harness's own metrics from the untraced and the
// traced passes, fills the per-layer set and writes the first traced pass as
// a Chrome trace.
func finishTrace(res *result, cfg runConfig, workload string, rec *recorder, firstPassSpans int, L *layers,
	extra map[string]float64, untraced, traced *tally) {
	self, total := selfTimes(rec.spans), totals(rec.spans)
	extra["bench.query_self_pct"] = 100 * ratio(float64(self["query"]), float64(total["query"]))
	extra["bench.trace_overhead_pct"] = 100 * (ratio(median(traced.passWall), median(untraced.passWall)) - 1)
	extra["bench.rep_spread_pct"] = 100 * spread(untraced.passWall)
	extra["vm.heap_peak_mb"] = L.max("vm.heap_used_mb")
	extra["bench.peak_rss_mb"] = peakRSSMB()
	res.Metrics = L.perLayerMetrics(extra)
	res.Info["spans"] = len(rec.spans)
	path := filepath.Join(cfg.OutDir, "trace-"+workload+".json")
	if err := writeChrome(path, rec.spans[:firstPassSpans]); err != nil {
		res.Info["trace_error"] = err.Error()
	} else {
		res.Info["trace"] = path
	}
}
