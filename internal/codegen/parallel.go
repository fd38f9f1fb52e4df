package codegen

import (
	"fmt"
	"sync"
	"sync/atomic"

	"qcc/internal/obs"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
)

var (
	ctrExecMorsels = obs.NewCounter("exec_morsels")
	ctrExecWorkers = obs.NewCounter("exec_workers")
)

// ExecOptions configures the morsel executor.
type ExecOptions struct {
	// Jobs is the worker count; <= 1 executes every pipeline sequentially.
	Jobs int
	// Module is the compiled vm module the workers execute. nil (e.g. the
	// QIR interpreter has none) forces sequential execution.
	Module *vm.Module
	// MorselSize overrides morsel sizing for every pipeline (0 = automatic:
	// DefaultMorselSize sequentially, row-count/worker-derived in parallel).
	MorselSize int64
	// ArenaMB is the per-worker heap arena in MiB (default 4, minimum 2 —
	// the vm reserves the top 1 MiB of each arena as the worker's stack).
	ArenaMB int
	// Pool, when set (and built over the same DB), supplies persistent
	// workers re-armed per query instead of a pool built for one run. Its
	// worker count overrides Jobs for the parallel path.
	Pool *ExecPool
	// Consts, when non-nil, goes into the constant pool in place of
	// c.Module.Pool: code compiled for one plan executes another that
	// differs only in the literals it reads from the pool.
	Consts []qir.PoolConst
}

// worker is one executor lane: a machine aliasing the main machine's memory
// with heap and stack confined to a private arena, plus a scratch runtime.
type worker struct {
	m     *vm.Machine
	db    *rt.DB
	state uint64
}

// RunParallel executes a compiled query against db; it is the one loop over
// a query's pipelines. It binds the literals into the runtime constant pool,
// allocates and zeroes the query state, then runs every pipeline: setup, the
// main function once per morsel of the pipeline's source, and cleanup.
// Results accumulate in db.Out.
//
// With more than one worker, eligible table pipelines fan out morsel-driven:
// workers pull fixed row ranges off a shared counter, accumulate
// partition-local sink state and output rows, and the executor merges both
// in morsel order afterwards, so results are byte-identical to sequential
// execution regardless of worker count. Ineligible pipelines (non-table
// sources, LIMIT, float running sums, aggregations compiled without
// Options.Parallel) run on the calling goroutine through call.
func RunParallel(db *rt.DB, cat *rt.Catalog, c *Compiled, call CallFunc, opts ExecOptions) (err error) {
	defer vm.CatchOOM(&err) // the state block and a one-run pool are allocated outside any call
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	pool := opts.Pool
	if pool != nil && pool.db != db {
		pool = nil // pool workers alias a different machine's memory
	}
	persistent := pool != nil
	if persistent {
		jobs = pool.Jobs()
	}

	seqMorsel := int64(DefaultMorselSize)
	if opts.MorselSize > 0 {
		seqMorsel = opts.MorselSize
	}

	// Bind hoisted literals into the runtime constant pool before anything
	// executes; workers read the main pool through shared machine memory.
	consts := opts.Consts
	if consts == nil {
		consts = c.Module.Pool
	}
	if err := db.BindConstPool(consts); err != nil {
		return err
	}

	state := db.M.Alloc(uint64(c.StateSize))
	for i := int64(0); i < c.StateSize; i++ {
		db.M.Mem[state+uint64(i)] = 0
	}

	// Worker entry points come from the module's unwind table (function
	// index -> code offset); engines that don't register them fall back to
	// sequential execution. Only a run that can fan out needs them.
	fanOut := jobs > 1 && opts.Module != nil
	var entries map[int]int32
	if fanOut {
		entries = map[int]int32{}
		for _, r := range opts.Module.Funcs() {
			if r.Func >= 0 {
				entries[int(r.Func)] = r.Start
			}
		}
	}

	var workers []*worker // armed lazily before the first parallel pipeline
	workersFailed := false

	for pi := range c.Pipelines {
		p := &c.Pipelines[pi]
		n, err := sourceRows(db, cat, p, state)
		if err != nil {
			return fmt.Errorf("pipeline %d: %w", pi, err)
		}
		morsel := opts.MorselSize
		if morsel <= 0 {
			morsel = autoMorsel(n, jobs)
		}
		nMorsels := (n + morsel - 1) / morsel

		parallel := fanOut && nMorsels >= 2 &&
			p.Source == SrcTable && !p.NoParallel &&
			!(p.Sink == SinkAgg && p.MergeFn < 0) &&
			hasEntries(entries, p)
		if parallel && workers == nil && !workersFailed {
			if pool == nil {
				// A pool for this run alone: its arenas sit above the
				// caller's heap mark and go when the run's heap is released.
				pool = newExecPool(db, jobs, opts.ArenaMB, uint64(c.StateSize))
			}
			if pool != nil {
				workers = pool.acquire(c)
			}
			if workers != nil && persistent {
				ctrPoolReuses.Inc()
			}
			workersFailed = workers == nil
		}
		if p.Kernel != nil {
			// Before setup and before the parallel path snapshots the state
			// and the handle table, so that workers resolve the handle too.
			h, err := db.PrepareBatch(p.Kernel)
			if err != nil {
				return fmt.Errorf("pipeline %d kernel: %w", pi, err)
			}
			if err := db.WriteU64(state+uint64(p.KernelOff), h); err != nil {
				return fmt.Errorf("pipeline %d kernel: %w", pi, err)
			}
		}
		if !parallel || workers == nil {
			if err := runPipelineSeq(p, pi, call, state, n, seqMorsel); err != nil {
				return err
			}
			continue
		}
		err = runPipelinePar(db, c, p, pi, call, opts.Module, entries, workers, state, n, morsel, nMorsels)
		if err != nil {
			return err
		}
	}
	return nil
}

// autoMorsel sizes parallel morsels: enough per-worker slices for load
// balancing (4 per worker) without dropping below a useful batch size.
func autoMorsel(n int64, jobs int) int64 {
	if jobs <= 1 || n <= 0 {
		return DefaultMorselSize
	}
	m := (n + int64(jobs*4) - 1) / int64(jobs*4)
	if m < 256 {
		m = 256
	}
	if m > DefaultMorselSize {
		m = DefaultMorselSize
	}
	return m
}

func hasEntries(entries map[int]int32, p *Pipeline) bool {
	_, s := entries[p.SetupFn]
	_, m := entries[p.MainFn]
	return s && m
}

// runPipelinePar executes one pipeline across the worker pool.
//
// Sequence: workers re-snapshot the main handle table (so earlier pipelines'
// merged sinks resolve under their baked ids), the main engine runs setup,
// then each worker replays setup against a copy of the pre-setup state —
// creating its partition-local sink under the same handle id — and pulls
// morsels off a shared counter. Afterwards output rows merge in morsel
// order and sink state merges in insertion-stamp order, reproducing the
// sequential result exactly; the earliest-morsel trap wins when workers
// trap, with output rows preceding that trap point preserved.
func runPipelinePar(db *rt.DB, c *Compiled, p *Pipeline, pi int, call CallFunc,
	mod *vm.Module, entries map[int]int32, workers []*worker,
	state uint64, n, morsel, nMorsels int64) error {

	pre := append([]byte(nil), db.M.Mem[state:state+uint64(c.StateSize)]...)
	for _, wk := range workers {
		wk.db.SyncHandles(db)
	}
	if _, err := call(p.SetupFn, state); err != nil {
		return fmt.Errorf("pipeline %d setup: %w", pi, err)
	}

	db.ShareForExec()
	defer db.EndShare()
	setupEntry := entries[p.SetupFn]
	mainEntry := entries[p.MainFn]

	var (
		next    int64
		stop    atomic.Bool
		mu      sync.Mutex
		trapM   int64 = -2 // -2: none, -1: worker setup, >= 0: morsel index
		trapErr error
		buckets = make([][][]rt.OutVal, nMorsels)
		wg      sync.WaitGroup
	)
	fail := func(m int64, err error) {
		mu.Lock()
		if trapErr == nil || m < trapM {
			trapM, trapErr = m, err
		}
		mu.Unlock()
		stop.Store(true)
	}

	for _, wk := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fail(-1, fmt.Errorf("pipeline %d: parallel worker panic: %v", pi, r))
				}
			}()
			wk.db.Own()
			defer wk.db.Release()
			copy(wk.m.Mem[wk.state:wk.state+uint64(len(pre))], pre)
			if _, err := wk.m.Call(mod, setupEntry, wk.state); err != nil {
				fail(-1, fmt.Errorf("pipeline %d worker setup: %w", pi, err))
				return
			}
			for !stop.Load() {
				m := atomic.AddInt64(&next, 1) - 1
				if m >= nMorsels {
					return
				}
				wk.db.SetMorsel(m)
				lo := m * morsel
				hi := lo + morsel
				if hi > n {
					hi = n
				}
				_, err := wk.m.Call(mod, mainEntry, wk.state, uint64(lo), uint64(hi))
				rows := wk.db.Out.DrainRows()
				mu.Lock()
				buckets[m] = rows
				mu.Unlock()
				if err != nil {
					fail(m, fmt.Errorf("pipeline %d morsel [%d,%d): %w", pi, lo, hi, err))
					return
				}
			}
		}(wk)
	}
	wg.Wait()

	// Fold worker machine counters into the main machine so per-query
	// instruction/branch/memop profiles stay complete.
	for _, wk := range workers {
		db.M.Executed += wk.m.Executed
		db.M.Branches += wk.m.Branches
		db.M.MemOps += wk.m.MemOps
		wk.m.Executed, wk.m.Branches, wk.m.MemOps = 0, 0, 0
	}
	ctrExecMorsels.Add(nMorsels)
	ctrExecWorkers.Add(int64(len(workers)))

	// Merge output rows in morsel order. On a trap, morsels before the
	// trapping one merge fully plus that morsel's partial rows — the rows a
	// sequential execution would have emitted before trapping.
	limit := nMorsels
	if trapErr != nil {
		limit = trapM + 1 // trapM == -1 (worker setup) merges nothing
	}
	for m := int64(0); m < limit; m++ {
		db.Out.AppendRows(buckets[m])
	}
	if trapErr != nil {
		return trapErr
	}

	wdbs := make([]*rt.DB, len(workers))
	for i, wk := range workers {
		wdbs[i] = wk.db
	}
	switch p.Sink {
	case SinkAgg:
		id, err := db.ReadU64(state + uint64(p.SinkOff))
		if err != nil {
			return fmt.Errorf("pipeline %d merge: %w", pi, err)
		}
		addrs, err := rt.StampedHTEntries(wdbs, id)
		if err != nil {
			return fmt.Errorf("pipeline %d merge: %w", pi, err)
		}
		for _, a := range addrs {
			if _, err := call(p.MergeFn, state, a); err != nil {
				return fmt.Errorf("pipeline %d merge: %w", pi, err)
			}
		}
	case SinkBuild:
		id, err := db.ReadU64(state + uint64(p.SinkOff))
		if err != nil {
			return fmt.Errorf("pipeline %d merge: %w", pi, err)
		}
		if err := rt.MergeBuildHT(db, wdbs, id); err != nil {
			return fmt.Errorf("pipeline %d merge: %w", pi, err)
		}
	case SinkVec:
		id, err := db.ReadU64(state + uint64(p.SinkOff))
		if err != nil {
			return fmt.Errorf("pipeline %d merge: %w", pi, err)
		}
		if err := rt.MergeVector(db, wdbs, id); err != nil {
			return fmt.Errorf("pipeline %d merge: %w", pi, err)
		}
	}
	if _, err := call(p.CleanupFn, state); err != nil {
		return fmt.Errorf("pipeline %d cleanup: %w", pi, err)
	}
	return nil
}
