package codegen

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"qcc/internal/backend"
	"qcc/internal/backend/direct"
	"qcc/internal/obs"
	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// parEnv builds a test environment with a "big" table of n rows:
// id I64 = row+1, val I64 = row%7, div I64 = 1 except divZeroRow (0),
// f F64 = (row%7)/2.
func parEnv(t *testing.T, n int64, divZeroRow int64) *testEnv {
	t.Helper()
	m := vm.New(vm.Config{Arch: vt.VX64, MemSize: 64 << 20})
	db := rt.NewDB(m)
	cat := rt.NewCatalog(db)
	big := cat.CreateTable("big", n,
		rt.ColSpec{Name: "id", Type: qir.I64},
		rt.ColSpec{Name: "val", Type: qir.I64},
		rt.ColSpec{Name: "div", Type: qir.I64},
		rt.ColSpec{Name: "f", Type: qir.F64},
	)
	for i := int64(0); i < n; i++ {
		cat.SetInt(big.MustCol("id"), i, i+1)
		cat.SetInt(big.MustCol("val"), i, i%7)
		d := int64(1)
		if i == divZeroRow {
			d = 0
		}
		cat.SetInt(big.MustCol("div"), i, d)
		cat.SetF64(big.MustCol("f"), i, float64(i%7)/2)
	}
	return &testEnv{db: db, cat: cat}
}

func bigSchema() []plan.ColInfo {
	return []plan.ColInfo{
		{Name: "id", Type: qir.I64},
		{Name: "val", Type: qir.I64},
		{Name: "div", Type: qir.I64},
		{Name: "f", Type: qir.F64},
	}
}

// runPar compiles with batch+parallel options on the direct engine and
// executes through RunParallel.
func runPar(t *testing.T, env *testEnv, p plan.Node, jobs int, morsel int64) ([]string, error) {
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
		ExecOptions{Jobs: jobs, Module: mod, MorselSize: morsel, ArenaMB: 1})
	return env.db.Out.Ordered(), runErr
}

// runSeqRef runs the same plan sequentially with default compile options as
// the reference.
func runSeqRef(t *testing.T, env *testEnv, p plan.Node, morsel int64) ([]string, error) {
	t.Helper()
	c, err := Compile("q", p, env.cat)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	eng := direct.New()
	ex, _, err := eng.Compile(c.Module, &backend.Env{DB: env.db, Arch: vt.VX64})
	if err != nil {
		t.Fatalf("backend compile: %v", err)
	}
	env.db.Out.Reset()
	runErr := RunParallel(env.db, env.cat, c, ex.Call, ExecOptions{MorselSize: morsel})
	return env.db.Out.Ordered(), runErr
}

func sumPlan() plan.Node {
	return &plan.GroupBy{
		Input: &plan.Scan{Table: "big", Cols: bigSchema()},
		Aggs: []plan.AggExpr{
			{Fn: plan.AggSum, Arg: col(1, qir.I64), Name: "s"},
			{Fn: plan.AggCount, Name: "n"},
		},
	}
}

func TestParallelEmptyTable(t *testing.T) {
	env := parEnv(t, 0, -1)
	rows, err := runPar(t, env, &plan.Project{
		Input: &plan.Scan{Table: "big", Cols: bigSchema()},
		Exprs: []plan.Expr{col(0, qir.I64)},
	}, 4, 16)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rows) != 0 {
		t.Fatalf("empty table produced %d rows", len(rows))
	}
	// Keyless aggregation over an empty table must also match sequential
	// (no groups, no output rows).
	env = parEnv(t, 0, -1)
	ref, err := runSeqRef(t, env, sumPlan(), 16)
	if err != nil {
		t.Fatalf("seq run: %v", err)
	}
	env = parEnv(t, 0, -1)
	rows, err = runPar(t, env, sumPlan(), 4, 16)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !reflect.DeepEqual(rows, ref) {
		t.Fatalf("empty-table aggregation: parallel %v, sequential %v", rows, ref)
	}
}

func TestParallelTableSmallerThanMorsel(t *testing.T) {
	// 5 rows, morsel 128: one morsel -> the executor must fall back to the
	// sequential path and still produce the right answer.
	env := parEnv(t, 5, -1)
	ref, err := runSeqRef(t, env, sumPlan(), 128)
	if err != nil {
		t.Fatalf("seq run: %v", err)
	}
	env = parEnv(t, 5, -1)
	before := obs.NewCounter("exec_workers").Load()
	rows, err := runPar(t, env, sumPlan(), 4, 128)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !reflect.DeepEqual(rows, ref) {
		t.Fatalf("parallel %v, sequential %v", rows, ref)
	}
	if got := obs.NewCounter("exec_workers").Load() - before; got != 0 {
		t.Fatalf("single-morsel pipeline dispatched to %d workers, want sequential fallback", got)
	}
}

func TestParallelNonDividingMorselSize(t *testing.T) {
	// 1000 rows at morsel 128: 7 full morsels and a 104-row remainder.
	env := parEnv(t, 1000, -1)
	ref, err := runSeqRef(t, env, sumPlan(), 128)
	if err != nil {
		t.Fatalf("seq run: %v", err)
	}
	for _, jobs := range []int{2, 3, 4, 8} {
		env = parEnv(t, 1000, -1)
		rows, err := runPar(t, env, sumPlan(), jobs, 128)
		if err != nil {
			t.Fatalf("jobs=%d: run: %v", jobs, err)
		}
		if !reflect.DeepEqual(rows, ref) {
			t.Fatalf("jobs=%d: parallel %v, sequential %v", jobs, rows, ref)
		}
	}
}

// TestParallelTrapMidMorsel places a division by zero at row 300 (morsel 2
// of a 128-row morsel grid) and checks the parallel executor reproduces the
// sequential trap exactly: same trap code, same trapping PC, and the same
// output-row prefix — everything emitted before the trapping row, nothing
// after it.
func TestParallelTrapMidMorsel(t *testing.T) {
	const trapRow = 300
	divide, err := plan.NewArith(plan.OpDiv, col(0, qir.I64), col(2, qir.I64))
	if err != nil {
		t.Fatal(err)
	}
	q := &plan.Project{
		Input: &plan.Scan{Table: "big", Cols: bigSchema()},
		Exprs: []plan.Expr{divide},
	}

	env := parEnv(t, 1000, trapRow)
	refRows, refErr := runSeqRef(t, env, q, 128)
	if refErr == nil {
		t.Fatal("sequential run did not trap")
	}
	var refTrap *vm.Trap
	if !errors.As(refErr, &refTrap) {
		t.Fatalf("sequential error %v is not a vm trap", refErr)
	}
	if len(refRows) != trapRow {
		t.Fatalf("sequential emitted %d rows before the trap, want %d", len(refRows), trapRow)
	}

	for _, jobs := range []int{2, 4} {
		env = parEnv(t, 1000, trapRow)
		flightBefore := obs.FlightRec().Len()
		rows, err := runPar(t, env, q, jobs, 128)
		if err == nil {
			t.Fatalf("jobs=%d: parallel run did not trap", jobs)
		}
		var tr *vm.Trap
		if !errors.As(err, &tr) {
			t.Fatalf("jobs=%d: error %v is not a vm trap", jobs, err)
		}
		if tr.Code != refTrap.Code {
			t.Errorf("jobs=%d: trap code %v, want %v", jobs, tr.Code, refTrap.Code)
		}
		if tr.PC != refTrap.PC {
			t.Errorf("jobs=%d: trap PC +%d, want +%d", jobs, tr.PC, refTrap.PC)
		}
		if !strings.Contains(err.Error(), "morsel [256,384)") {
			t.Errorf("jobs=%d: error %q does not name the trapping morsel", jobs, err)
		}
		if !reflect.DeepEqual(rows, refRows) {
			t.Errorf("jobs=%d: output prefix diverges: %d rows vs %d sequential", jobs, len(rows), len(refRows))
		}
		// The worker trap must still symbolize through the module's unwind
		// info into the flight recorder, attributing the generated main
		// function of the scan pipeline.
		if obs.FlightRec().Len() == flightBefore {
			t.Fatalf("jobs=%d: worker trap not recorded in flight recorder", jobs)
		}
		found := false
		for _, ev := range obs.FlightRec().Snapshot() {
			if ev.Kind == obs.FlightTrap && strings.Contains(ev.Name, "q_p0_main") {
				found = true
			}
		}
		if !found {
			t.Errorf("jobs=%d: no symbolized FlightTrap event for q_p0_main", jobs)
		}
	}
}

// TestParallelBatchAggMatchesTuple pins the batch kernels against the tuple
// path on a filter+groupby directly (independent of the TPC-H corpus), with
// the literal on either side of each comparison, on an integer and on an F64
// column.
func TestParallelBatchAggMatchesTuple(t *testing.T) {
	var preds []plan.Expr
	add := func(op plan.CmpOp, l, r plan.Expr) {
		pred, err := plan.NewCmp(op, l, r)
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, pred)
	}
	add(plan.CmpGE, col(1, qir.I64), &plan.ConstInt{Ty: qir.I64, V: 3})
	add(plan.CmpLT, col(3, qir.F64), &plan.ConstFloat{V: 1.5})
	for op := plan.CmpEQ; op <= plan.CmpGE; op++ {
		add(op, &plan.ConstInt{Ty: qir.I64, V: 3}, col(1, qir.I64))
		add(op, &plan.ConstFloat{V: 1.5}, col(3, qir.F64))
	}
	q := func(pred plan.Expr) plan.Node {
		return &plan.GroupBy{
			Input: &plan.Select{
				Input: &plan.Scan{Table: "big", Cols: bigSchema()},
				Pred:  pred,
			},
			Keys:  []plan.Expr{col(1, qir.I64)},
			Names: []string{"val"},
			Aggs: []plan.AggExpr{
				{Fn: plan.AggSum, Arg: col(0, qir.I64), Name: "s"},
				{Fn: plan.AggMin, Arg: col(0, qir.I64), Name: "lo"},
				{Fn: plan.AggMax, Arg: col(0, qir.I64), Name: "hi"},
				{Fn: plan.AggAvg, Arg: col(0, qir.I64), Name: "avg"},
				{Fn: plan.AggCount, Name: "n"},
			},
		}
	}
	for _, pred := range preds {
		env := parEnv(t, 1000, -1)
		ref, err := runSeqRef(t, env, q(pred), 128)
		if err != nil {
			t.Fatalf("%v: seq run: %v", pred, err)
		}
		env = parEnv(t, 1000, -1)
		before := obs.NewCounter("rt_batch_rows").Load()
		rows, err := runPar(t, env, q(pred), 4, 128)
		if err != nil {
			t.Fatalf("%v: run: %v", pred, err)
		}
		if !reflect.DeepEqual(rows, ref) {
			t.Fatalf("%v: batch parallel:\n%v\nsequential tuple:\n%v", pred, rows, ref)
		}
		if got := obs.NewCounter("rt_batch_rows").Load() - before; got != 1000 {
			t.Fatalf("%v: rt_batch_rows advanced by %d, want 1000", pred, got)
		}
	}
}
