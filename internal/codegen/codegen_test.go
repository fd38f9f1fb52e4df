package codegen

import (
	"fmt"
	"reflect"
	"testing"

	"qcc/internal/backend"
	"qcc/internal/backend/interp"
	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// testEnv builds a machine, runtime, and a small orders/customers catalog.
type testEnv struct {
	db  *rt.DB
	cat *rt.Catalog
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	m := vm.New(vm.Config{Arch: vt.VX64, MemSize: 32 << 20})
	db := rt.NewDB(m)
	cat := rt.NewCatalog(db)

	// orders: id I64, cust I64, amount I128 (decimal cents), qty I32,
	// status Str.
	orders := cat.CreateTable("orders", 10,
		rt.ColSpec{Name: "id", Type: qir.I64},
		rt.ColSpec{Name: "cust", Type: qir.I64},
		rt.ColSpec{Name: "amount", Type: qir.I128},
		rt.ColSpec{Name: "qty", Type: qir.I32},
		rt.ColSpec{Name: "status", Type: qir.Str},
	)
	statuses := []string{"open", "shipped", "open", "shipped", "returned",
		"open", "shipped", "open", "open", "shipped"}
	for i := int64(0); i < 10; i++ {
		cat.SetInt(orders.MustCol("id"), i, i+1)
		cat.SetInt(orders.MustCol("cust"), i, i%3)
		cat.SetI128(orders.MustCol("amount"), i, rt.I128FromInt64((i+1)*150))
		cat.SetInt(orders.MustCol("qty"), i, 10-i)
		cat.SetStr(orders.MustCol("status"), i, statuses[i])
	}

	// customers: id I64, name Str.
	cust := cat.CreateTable("customers", 3,
		rt.ColSpec{Name: "id", Type: qir.I64},
		rt.ColSpec{Name: "name", Type: qir.Str},
	)
	names := []string{"alpha", "bravo", "charlie"}
	for i := int64(0); i < 3; i++ {
		cat.SetInt(cust.MustCol("id"), i, i)
		cat.SetStr(cust.MustCol("name"), i, names[i])
	}
	return &testEnv{db: db, cat: cat}
}

func ordersSchema() []plan.ColInfo {
	return []plan.ColInfo{
		{Name: "id", Type: qir.I64},
		{Name: "cust", Type: qir.I64},
		{Name: "amount", Type: qir.I128},
		{Name: "qty", Type: qir.I32},
		{Name: "status", Type: qir.Str},
	}
}

func customersSchema() []plan.ColInfo {
	return []plan.ColInfo{
		{Name: "id", Type: qir.I64},
		{Name: "name", Type: qir.Str},
	}
}

// runPlan compiles and executes a plan on the interpreter, returning
// canonical result lines.
func runPlan(t *testing.T, env *testEnv, name string, p plan.Node) []string {
	t.Helper()
	return runPlanMorsel(t, env, name, p, DefaultMorselSize)
}

func runPlanMorsel(t *testing.T, env *testEnv, name string, p plan.Node, morsel int64) []string {
	t.Helper()
	c, err := Compile(name, p, env.cat)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	eng := interp.New()
	ex, stats, err := eng.Compile(c.Module, &backend.Env{DB: env.db, Arch: vt.VX64})
	if err != nil {
		t.Fatalf("backend compile: %v", err)
	}
	if stats.Funcs == 0 {
		t.Error("no functions compiled")
	}
	env.db.Out.Reset()
	err = RunParallel(env.db, env.cat, c, ex.Call, ExecOptions{MorselSize: morsel})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return env.db.Out.Canonical()
}

func col(i int, t qir.Type) *plan.Col { return &plan.Col{Idx: i, Ty: t} }

func TestScanProject(t *testing.T) {
	env := newTestEnv(t)
	p := &plan.Project{
		Input: &plan.Scan{Table: "orders", Cols: ordersSchema()},
		Exprs: []plan.Expr{col(0, qir.I64), col(4, qir.Str)},
	}
	got := runPlan(t, env, "q", p)
	if len(got) != 10 {
		t.Fatalf("got %d rows", len(got))
	}
	if got[0] != "10|shipped" && got[0] != "1|open" {
		// canonical sorting is lexicographic: "1|open" < "10|shipped"
		t.Errorf("unexpected first row %q", got[0])
	}
}

func TestFilterComparison(t *testing.T) {
	env := newTestEnv(t)
	pred, err := plan.NewCmp(plan.CmpGT, col(3, qir.I32), &plan.ConstInt{Ty: qir.I32, V: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Project{
		Input: &plan.Select{
			Input: &plan.Scan{Table: "orders", Cols: ordersSchema()},
			Pred:  pred,
		},
		Exprs: []plan.Expr{col(0, qir.I64)},
	}
	got := runPlan(t, env, "q", p)
	// qty = 10-i > 7 → i in {0,1,2} → ids 1,2,3
	want := []string{"1", "2", "3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestScanFilterPushdown(t *testing.T) {
	env := newTestEnv(t)
	pred := &plan.Like{E: col(4, qir.Str), Pattern: "ship%"}
	p := &plan.Project{
		Input: &plan.Scan{Table: "orders", Cols: ordersSchema(), Filter: pred},
		Exprs: []plan.Expr{col(0, qir.I64)},
	}
	got := runPlan(t, env, "q", p)
	want := []string{"10", "2", "4", "7"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestDecimalArithmetic(t *testing.T) {
	env := newTestEnv(t)
	// amount * 2 for order id 1.
	two := &plan.ConstDec{V: rt.I128FromInt64(2)}
	mul, err := plan.NewArith(plan.OpMul, col(2, qir.I128), two)
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := plan.NewCmp(plan.CmpEQ, col(0, qir.I64), &plan.ConstInt{Ty: qir.I64, V: 1})
	p := &plan.Project{
		Input: &plan.Select{Input: &plan.Scan{Table: "orders", Cols: ordersSchema()}, Pred: pred},
		Exprs: []plan.Expr{mul},
	}
	got := runPlan(t, env, "q", p)
	want := []string{"300"} // 150*2
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestGroupByAggregates(t *testing.T) {
	env := newTestEnv(t)
	g := &plan.GroupBy{
		Input: &plan.Scan{Table: "orders", Cols: ordersSchema()},
		Keys:  []plan.Expr{col(1, qir.I64)},
		Aggs: []plan.AggExpr{
			{Fn: plan.AggCount},
			{Fn: plan.AggSum, Arg: col(3, qir.I32)},
			{Fn: plan.AggMin, Arg: col(0, qir.I64)},
			{Fn: plan.AggMax, Arg: col(0, qir.I64)},
			{Fn: plan.AggSum, Arg: col(2, qir.I128)},
		},
	}
	got := runPlan(t, env, "q", g)
	// cust = i%3: group 0: i=0,3,6,9 -> ids 1,4,7,10, qty 10,7,4,1=22,
	//   amounts 150+600+1050+1500=3300
	// group 1: i=1,4,7 -> ids 2,5,8, qty 9,6,3=18, amounts 300+750+1200=2250
	// group 2: i=2,5,8 -> ids 3,6,9, qty 8,5,2=15, amounts 450+900+1350=2700
	want := []string{
		"0|4|22|1|10|3300",
		"1|3|18|2|8|2250",
		"2|3|15|3|9|2700",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestGroupByAvg(t *testing.T) {
	env := newTestEnv(t)
	g := &plan.GroupBy{
		Input: &plan.Scan{Table: "orders", Cols: ordersSchema()},
		Keys:  nil,
		Aggs: []plan.AggExpr{
			{Fn: plan.AggAvg, Arg: col(3, qir.I32)},
			{Fn: plan.AggCount},
		},
	}
	got := runPlan(t, env, "q", g)
	// qty sum = 55, count 10 → avg 5 (truncating)
	want := []string{"5|10"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestHashJoin(t *testing.T) {
	env := newTestEnv(t)
	j := &plan.HashJoin{
		Build:     &plan.Scan{Table: "customers", Cols: customersSchema()},
		Probe:     &plan.Scan{Table: "orders", Cols: ordersSchema()},
		BuildKeys: []plan.Expr{col(0, qir.I64)},
		ProbeKeys: []plan.Expr{col(1, qir.I64)},
	}
	// schema: cust.id, cust.name, o.id, o.cust, o.amount, o.qty, o.status
	p := &plan.Project{
		Input: j,
		Exprs: []plan.Expr{col(2, qir.I64), col(1, qir.Str)},
	}
	got := runPlan(t, env, "q", p)
	if len(got) != 10 {
		t.Fatalf("join produced %d rows, want 10: %v", len(got), got)
	}
	// id 1 (i=0, cust 0) joins alpha; id 2 (cust 1) joins bravo.
	wantSome := map[string]bool{"1|alpha": true, "2|bravo": true, "3|charlie": true, "10|alpha": true}
	found := 0
	for _, l := range got {
		if wantSome[l] {
			found++
		}
	}
	if found != 4 {
		t.Errorf("expected join rows missing: %v", got)
	}
}

func TestJoinDuplicateBuildKeys(t *testing.T) {
	env := newTestEnv(t)
	// Join orders with itself on cust: counts of pairs per row.
	j := &plan.HashJoin{
		Build:     &plan.Scan{Table: "orders", Cols: ordersSchema()},
		Probe:     &plan.Scan{Table: "orders", Cols: ordersSchema()},
		BuildKeys: []plan.Expr{col(1, qir.I64)},
		ProbeKeys: []plan.Expr{col(1, qir.I64)},
	}
	g := &plan.GroupBy{
		Input: j,
		Keys:  nil,
		Aggs:  []plan.AggExpr{{Fn: plan.AggCount}},
	}
	got := runPlan(t, env, "q", g)
	// group sizes 4,3,3 → pairs 16+9+9 = 34
	want := []string{"34"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestSortAndLimit(t *testing.T) {
	env := newTestEnv(t)
	s := &plan.Sort{
		Input: &plan.Scan{Table: "orders", Cols: ordersSchema()},
		Keys:  []plan.SortKey{{E: col(0, qir.I64), Desc: true}},
	}
	p := &plan.Project{
		Input: &plan.Limit{Input: s, N: 3},
		Exprs: []plan.Expr{col(0, qir.I64)},
	}
	got := runPlan(t, env, "q", p)
	want := []string{"10", "8", "9"} // canonical sort of {10,9,8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestSortMultiKeyComparator(t *testing.T) {
	env := newTestEnv(t)
	s := &plan.Sort{
		Input: &plan.Scan{Table: "orders", Cols: ordersSchema()},
		Keys: []plan.SortKey{
			{E: col(4, qir.Str)},
			{E: col(0, qir.I64), Desc: true},
		},
	}
	p := &plan.Project{
		Input: &plan.Limit{Input: s, N: 2},
		Exprs: []plan.Expr{col(0, qir.I64), col(4, qir.Str)},
	}
	got := runPlan(t, env, "q", p)
	// status sorted asc: open(ids 9,8,6,3,1 desc by id)... first two: 9, 8.
	want := []string{"8|open", "9|open"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestCaseAndBetween(t *testing.T) {
	env := newTestEnv(t)
	btw := &plan.Between{
		E:  col(0, qir.I64),
		Lo: &plan.ConstInt{Ty: qir.I64, V: 3},
		Hi: &plan.ConstInt{Ty: qir.I64, V: 5},
	}
	cs := &plan.Case{
		Cond: btw,
		Then: &plan.ConstInt{Ty: qir.I64, V: 1},
		Else: &plan.ConstInt{Ty: qir.I64, V: 0},
	}
	g := &plan.GroupBy{
		Input: &plan.Project{
			Input: &plan.Scan{Table: "orders", Cols: ordersSchema()},
			Exprs: []plan.Expr{cs},
		},
		Aggs: []plan.AggExpr{{Fn: plan.AggSum, Arg: col(0, qir.I64)}},
	}
	got := runPlan(t, env, "q", g)
	want := []string{"3"} // ids 3,4,5
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestSmallMorsels(t *testing.T) {
	env := newTestEnv(t)
	g := &plan.GroupBy{
		Input: &plan.Scan{Table: "orders", Cols: ordersSchema()},
		Aggs:  []plan.AggExpr{{Fn: plan.AggCount}},
	}
	for _, morsel := range []int64{1, 3, 10, 100} {
		got := runPlanMorsel(t, env, fmt.Sprintf("q%d", morsel), g, morsel)
		if !reflect.DeepEqual(got, []string{"10"}) {
			t.Errorf("morsel %d: got %v", morsel, got)
		}
	}
}

func TestStringJoinKeys(t *testing.T) {
	env := newTestEnv(t)
	j := &plan.HashJoin{
		Build:     &plan.Scan{Table: "orders", Cols: ordersSchema()},
		Probe:     &plan.Scan{Table: "orders", Cols: ordersSchema()},
		BuildKeys: []plan.Expr{col(4, qir.Str)},
		ProbeKeys: []plan.Expr{col(4, qir.Str)},
	}
	g := &plan.GroupBy{
		Input: j,
		Aggs:  []plan.AggExpr{{Fn: plan.AggCount}},
	}
	got := runPlan(t, env, "q", g)
	// status groups: open×5, shipped×4, returned×1 → 25+16+1 = 42
	want := []string{"42"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestCompiledMetadata(t *testing.T) {
	env := newTestEnv(t)
	s := &plan.Sort{
		Input: &plan.GroupBy{
			Input: &plan.Scan{Table: "orders", Cols: ordersSchema()},
			Keys:  []plan.Expr{col(1, qir.I64)},
			Aggs:  []plan.AggExpr{{Fn: plan.AggCount}},
		},
		Keys: []plan.SortKey{{E: col(1, qir.I64), Desc: true}},
	}
	c, err := Compile("meta", s, env.cat)
	if err != nil {
		t.Fatal(err)
	}
	// Pipelines: scan->groupby, groups->sortvec, vec->output = 3.
	if len(c.Pipelines) != 3 {
		t.Fatalf("pipelines = %d, want 3", len(c.Pipelines))
	}
	if c.Pipelines[0].Source != SrcTable || c.Pipelines[1].Source != SrcGroups || c.Pipelines[2].Source != SrcVector {
		t.Errorf("pipeline sources wrong: %+v", c.Pipelines)
	}
	// 3 pipelines × 3 functions each.
	if c.NumFuncs < 9 {
		t.Errorf("NumFuncs = %d, want >= 9", c.NumFuncs)
	}
	if c.StateSize < 16 {
		t.Errorf("StateSize = %d", c.StateSize)
	}
}

func TestDecimalDivision(t *testing.T) {
	env := newTestEnv(t)
	den := &plan.ConstDec{V: rt.I128FromInt64(3)}
	div, err := plan.NewArith(plan.OpDiv, col(2, qir.I128), den)
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := plan.NewCmp(plan.CmpEQ, col(0, qir.I64), &plan.ConstInt{Ty: qir.I64, V: 2})
	p := &plan.Project{
		Input: &plan.Select{Input: &plan.Scan{Table: "orders", Cols: ordersSchema()}, Pred: pred},
		Exprs: []plan.Expr{div},
	}
	got := runPlan(t, env, "q", p)
	want := []string{"100"} // 300/3
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestDecimalGroupKeys(t *testing.T) {
	env := newTestEnv(t)
	g := &plan.GroupBy{
		Input: &plan.Scan{Table: "orders", Cols: ordersSchema()},
		Keys:  []plan.Expr{col(2, qir.I128)},
		Aggs:  []plan.AggExpr{{Fn: plan.AggCount}},
	}
	got := runPlan(t, env, "q", g)
	if len(got) != 10 {
		t.Errorf("distinct amounts = %d rows, want 10: %v", len(got), got)
	}
}

// TestKernelCodesArePlanCodes pins the numbering the kernel walk relies on
// when it casts a plan operator or aggregate to its kernel code.
func TestKernelCodesArePlanCodes(t *testing.T) {
	pairs := [][2]uint8{
		{rt.BArithAdd, uint8(plan.OpAdd)}, {rt.BArithSub, uint8(plan.OpSub)}, {rt.BArithMul, uint8(plan.OpMul)},
		{rt.BCmpEQ, uint8(plan.CmpEQ)}, {rt.BCmpNE, uint8(plan.CmpNE)}, {rt.BCmpLT, uint8(plan.CmpLT)},
		{rt.BCmpLE, uint8(plan.CmpLE)}, {rt.BCmpGT, uint8(plan.CmpGT)}, {rt.BCmpGE, uint8(plan.CmpGE)},
		{rt.BAggSum, uint8(plan.AggSum)}, {rt.BAggCount, uint8(plan.AggCount)}, {rt.BAggMin, uint8(plan.AggMin)},
		{rt.BAggMax, uint8(plan.AggMax)}, {rt.BAggAvg, uint8(plan.AggAvg)},
	}
	for i, p := range pairs {
		if p[0] != p[1] {
			t.Errorf("pair %d: kernel code %d, plan code %d", i, p[0], p[1])
		}
	}
}
