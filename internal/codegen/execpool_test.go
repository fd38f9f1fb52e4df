package codegen

import (
	"reflect"
	"testing"

	"qcc/internal/backend"
	"qcc/internal/backend/direct"
	"qcc/internal/obs"
	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/vt"
)

// runParPooled is runPar routed through a persistent ExecPool.
func runParPooled(t *testing.T, env *testEnv, pool *ExecPool, p plan.Node, jobs int, morsel int64) ([]string, error) {
	t.Helper()
	c, err := CompileOpts("q", p, env.cat, Options{Elim: true, Batch: true, Parallel: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	eng := direct.New()
	ex, _, err := eng.Compile(c.Module, &backend.Env{DB: env.db, Arch: vt.VX64})
	if err != nil {
		t.Fatalf("backend compile: %v", err)
	}
	mod := backend.ModuleOf(ex)
	env.db.Out.Reset()
	runErr := RunParallel(env.db, env.cat, c, ex.Call,
		ExecOptions{Jobs: jobs, Module: mod, MorselSize: morsel, ArenaMB: 1, Pool: pool})
	return env.db.Out.Ordered(), runErr
}

// TestExecPoolReusedAcrossQueries: a pool created before the checkpoint must
// survive per-query ResetToCheckpoint and be re-armed (not rebuilt) for each
// RunParallel call, with results identical to sequential execution.
func TestExecPoolReusedAcrossQueries(t *testing.T) {
	env := parEnv(t, 4096, -1)
	pool := NewExecPool(env.db, 4, 1)
	if pool == nil {
		t.Fatal("NewExecPool returned nil with ample heap room")
	}
	if pool.Jobs() != 4 {
		t.Fatalf("Jobs=%d, want 4", pool.Jobs())
	}
	env.db.Checkpoint()

	ref, err := runSeqRef(t, env, sumPlan(), 64)
	if err != nil {
		t.Fatalf("seq run: %v", err)
	}
	env.db.ResetToCheckpoint()

	for round := 0; round < 3; round++ {
		reusesBefore := ctrPoolReuses.Load()
		workersBefore := obs.NewCounter("exec_workers").Load()
		rows, err := runParPooled(t, env, pool, sumPlan(), 1 /* pool.Jobs overrides */, 64)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(rows, ref) {
			t.Fatalf("round %d: pooled %v, sequential %v", round, rows, ref)
		}
		if ctrPoolReuses.Load() == reusesBefore {
			t.Fatalf("round %d: pool not acquired (exec_pool_reuses unchanged)", round)
		}
		if obs.NewCounter("exec_workers").Load() == workersBefore {
			t.Fatalf("round %d: pooled run never dispatched to workers", round)
		}
		// The per-query teardown the benchmark harness performs: the pool's
		// arenas sit below the checkpoint mark, so this must not free them.
		env.db.ResetToCheckpoint()
	}

	// A second plan shape through the same pool: re-arming must rebind the
	// new module's runtime imports, not replay the old query's.
	proj := &plan.Project{
		Input: &plan.Scan{Table: "big", Cols: bigSchema()},
		Exprs: []plan.Expr{col(0, qir.I64)},
	}
	refP, err := runSeqRef(t, env, proj, 64)
	if err != nil {
		t.Fatalf("seq project: %v", err)
	}
	env.db.ResetToCheckpoint()
	rows, err := runParPooled(t, env, pool, proj, 1, 64)
	if err != nil {
		t.Fatalf("pooled project: %v", err)
	}
	if !reflect.DeepEqual(rows, refP) {
		t.Fatalf("pooled project %v, sequential %v", rows, refP)
	}
}

// TestExecPoolForeignDBIgnored: passing a pool built for another DB must not
// corrupt execution — RunParallel detects the mismatch and builds a pool
// for the run instead.
func TestExecPoolForeignDBIgnored(t *testing.T) {
	other := parEnv(t, 256, -1)
	foreign := NewExecPool(other.db, 2, 1)
	if foreign == nil {
		t.Fatal("pool construction failed")
	}

	env := parEnv(t, 4096, -1)
	ref, err := runSeqRef(t, env, sumPlan(), 64)
	if err != nil {
		t.Fatalf("seq run: %v", err)
	}
	reusesBefore := ctrPoolReuses.Load()
	rows, err := runParPooled(t, env, foreign, sumPlan(), 4, 64)
	if err != nil {
		t.Fatalf("run with foreign pool: %v", err)
	}
	if !reflect.DeepEqual(rows, ref) {
		t.Fatalf("foreign-pool run %v, sequential %v", rows, ref)
	}
	if ctrPoolReuses.Load() != reusesBefore {
		t.Fatal("foreign pool was acquired; it belongs to a different DB")
	}
}
