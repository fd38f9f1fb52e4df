package codegen

import (
	"qcc/internal/obs"
	"qcc/internal/rt"
	"qcc/internal/vm"
)

// ctrPoolReuses counts re-arms of a persistent pool; a pool built for one
// run does not count.
var ctrPoolReuses = obs.NewCounter("exec_pool_reuses")

// ExecPool is the morsel executor's set of workers: per-worker arenas
// carved out of the main heap, with a machine and a scratch runtime on each,
// re-armed (heap reset, handle/intern re-sync, runtime rebind) per query.
// Its constructor is the only code that builds worker runtimes.
//
// A persistent pool (NewExecPool) is built once and re-armed for every
// query, so fan-out costs a few pointer resets instead of arena allocation
// and machine and runtime construction; that matters exactly in the
// plan-cache regime, where compilation is already amortized and per-query
// overhead dominates. Create it before db.Checkpoint(): the arenas must sit
// below the checkpoint mark or per-query ResetToCheckpoint would free them.
// A run that fans out without one builds a pool for that run alone. A pool
// is single-owner like the DB itself — one query executes at a time.
type ExecPool struct {
	db    *rt.DB
	ws    []*worker
	marks []uint64 // per-worker post-construction heap marks
}

// NewExecPool builds a persistent pool of jobs workers with arenaMB MiB
// arenas (same defaults and minimums as ExecOptions). Returns nil when jobs
// leaves nothing to pool (<= 1) or the heap cannot fit the arenas — callers
// fall back to a pool per run or sequential execution.
func NewExecPool(db *rt.DB, jobs, arenaMB int) *ExecPool {
	return newExecPool(db, jobs, arenaMB, 0)
}

// newExecPool sizes the worker arena from arenaMB (0 = 4 MiB; at least
// 2 MiB, since a worker's stack lives in the top 1 MiB of its arena, the
// vm's fixed stack margin), carves jobs arenas out of db's heap and builds a
// worker on each. It returns nil when jobs <= 1 or when the heap cannot fit
// the arenas with reserve bytes and 1 MiB to spare; the query then runs
// sequentially rather than risking arena exhaustion.
func newExecPool(db *rt.DB, jobs, arenaMB int, reserve uint64) *ExecPool {
	if jobs <= 1 {
		return nil
	}
	arena := uint64(arenaMB)
	if arena == 0 {
		arena = 4
	}
	arena = max(arena, 2) << 20
	if db.M.HeapRoom() < uint64(jobs)*arena+reserve+(1<<20) {
		return nil
	}
	pl := &ExecPool{db: db}
	for i := 0; i < jobs; i++ {
		base := db.M.Alloc(arena)
		wm := vm.NewWorker(db.M, base, base+arena)
		wdb := db.NewWorkerDB(wm)
		pl.ws = append(pl.ws, &worker{m: wm, db: wdb})
		pl.marks = append(pl.marks, wm.HeapMark())
	}
	return pl
}

// Jobs returns the pool's worker count.
func (pl *ExecPool) Jobs() int { return len(pl.ws) }

// acquire arms the pool for one query: worker heaps reset to their
// post-construction marks, worker runtimes re-synced against the main DB
// (whose intern map and handle table a ResetToCheckpoint may have replaced
// since the last query), fresh per-query state allocated, and the module's
// runtime imports bound. Returns nil if a bind fails, which sends the caller
// down the sequential path.
func (pl *ExecPool) acquire(c *Compiled) []*worker {
	for i, wk := range pl.ws {
		wk.m.ResetHeapTo(pl.marks[i])
		wk.db.ResetForQuery(pl.db)
		if err := wk.db.Bind(c.Module.RTNames); err != nil {
			return nil
		}
		wk.state = wk.m.Alloc(uint64(c.StateSize))
	}
	return pl.ws
}
