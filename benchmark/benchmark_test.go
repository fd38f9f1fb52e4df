package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"qcc/internal/bench"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/sql"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

func take(seed int64, n int) []statement {
	s := newStream(seed)
	out := make([]statement, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := take(7, 500), take(7, 500), take(8, 500)
	same := 0
	for i := range a {
		if a[i].SQL != b[i].SQL || a[i].Key != b[i].Key {
			t.Fatalf("seed 7, statement %d differs between two draws:\n%s\n%s", i, a[i].SQL, b[i].SQL)
		}
		if a[i].SQL == c[i].SQL {
			same++
		}
	}
	if same > len(a)/2 {
		t.Errorf("seeds 7 and 8 agree on %d of %d statements", same, len(a))
	}
}

func TestEveryGeneratedStatementParses(t *testing.T) {
	m, err := loadWorld(vt.VX64, 64, "tpch", adhocSF)
	if err != nil {
		t.Fatal(err)
	}
	novel, keyed := 0, 0
	for _, st := range take(3, 2000) {
		if _, err := sql.Parse(st.SQL, m.Cat); err != nil {
			t.Fatalf("%s: %v", st.SQL, err)
		}
		if st.Key == "" && st.Shape == nil {
			t.Fatalf("%s: neither a golden key nor a shape to check it by", st.SQL)
		}
		if st.Key == "" {
			novel++
		} else {
			keyed++
		}
	}
	if share := float64(novel) / float64(novel+keyed); math.Abs(share-novelShare) > 0.05 {
		t.Errorf("novel share %.3f, want about %.2f", share, novelShare)
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{9, 1, 4, 7, 2, 10, 3, 8, 6, 5}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(xs, 90); math.Abs(got-9.1) > 1e-9 {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := geomean([]float64{1, 100, 0}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean skipping the zero = %v, want 10", got)
	}
	// lower quartiles 1.5 and 55 of the two engines' three passes
	if got := perEngineTypical([][]float64{{1, 10}, {3, 1000}, {2, 100}}, 2); math.Abs(got-math.Sqrt(1.5*55)) > 1e-9 {
		t.Errorf("perEngineTypical = %v, want sqrt(1.5*55)", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "query", Start: 0, Dur: 100, Parent: -1},
		{Name: "codegen.compile", Start: 10, Dur: 30, Parent: 0},
		{Name: "backend.compile", Start: 40, Dur: 50, Parent: 0},
		{Name: "ISel", Start: 40, Dur: 20, Parent: 2},
		{Name: "Emit", Start: 60, Dur: 40, Parent: 2}, // reported phases overshoot their parent
		{Name: "query", Start: 100, Dur: 10, Parent: -1},
	}
	want := map[string]int64{"query": 30, "codegen.compile": 30, "backend.compile": 0, "ISel": 20, "Emit": 40}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := totals(spans)["query"]; got != 110 {
		t.Errorf("total query time = %d, want 110", got)
	}
}

func TestRecorderClosesSpansLeftOpenByAFailure(t *testing.T) {
	r := newRecorder()
	q := r.begin("query")
	r.begin("codegen.compile") // fails: never ended
	r.end(q)
	next := r.begin("query")
	r.end(next)
	if len(r.stack) != 0 {
		t.Fatalf("stack not empty: %v", r.stack)
	}
	if r.spans[next].Parent != -1 {
		t.Errorf("the next query is nested under span %d", r.spans[next].Parent)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("query")) // the untraced passes record nothing
}

func TestGoldenFilesCoverEveryQuery(t *testing.T) {
	for _, c := range []struct {
		dataset string
		sf      float64
		queries []bench.Query
	}{
		{"tpcds", planSpecs["compile_tpcds"].sf, bench.DSQueries()},
		{"tpch", planSpecs["exec_tpch"].sf, bench.HQueries()},
		{"tpch", planSpecs["exec_tpch_batchpar"].sf, bench.HQueries()},
		{"tpch", planSpecs["exec_tpch"].quickSF, bench.HQueries()},
	} {
		g, err := loadGolden(c.dataset, c.sf)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Queries) != len(c.queries) {
			t.Errorf("%s: %d digests for %d queries", goldenName(c.dataset, c.sf), len(g.Queries), len(c.queries))
		}
		for _, q := range c.queries {
			if d, ok := g.Queries[q.Name]; !ok || len(d.SHA256) != 64 {
				t.Errorf("%s: no digest for %s", goldenName(c.dataset, c.sf), q.Name)
			}
		}
	}
	g, err := loadGolden("adhoc", adhocSF)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < familyCount; f++ {
		for v := 0; v < variantCount; v++ {
			if _, ok := g.Queries[family(f, v).Key]; !ok {
				t.Errorf("adhoc: no digest for family %d variant %d", f, v)
			}
		}
	}
	if _, err := loadGolden("tpch", 12345); err == nil {
		t.Error("loading a golden file that does not exist succeeded")
	}
}

func TestReferenceEvaluatorOnAHandMadeTable(t *testing.T) {
	db := rt.NewDB(vm.New(vm.Config{Arch: vt.VX64, MemSize: 8 << 20}))
	cat := rt.NewCatalog(db)
	tbl := cat.CreateTable("t", 5, rt.ColSpec{Name: "k", Type: qir.Str}, rt.ColSpec{Name: "d", Type: qir.I32}, rt.ColSpec{Name: "v", Type: qir.I128})
	for i, row := range []struct {
		k string
		d int64
		v int64
	}{{"a", 1, 10}, {"b", 2, -7}, {"a", 3, 5}, {"b", 4, -8}, {"a", 9, 1000}} {
		cat.SetStr(tbl.MustCol("k"), int64(i), row.k)
		cat.SetInt(tbl.MustCol("d"), int64(i), row.d)
		cat.SetI128(tbl.MustCol("v"), int64(i), rt.I128FromInt64(row.v))
	}
	s := shape{Table: "t", Keys: []string{"k"},
		Preds: []pred{{Col: "d", Op: "<", Int: 9}},
		Aggs: []agg{{Fn: "COUNT"}, {Fn: "SUM", Arg: argExpr{Col: "v"}}, {Fn: "AVG", Arg: argExpr{Col: "v"}},
			{Fn: "MIN", Arg: argExpr{Col: "v"}}, {Fn: "MAX", Arg: argExpr{Col: "v", Times: "d", Complement: 10}}}}
	got, err := refEval(cat, s)
	if err != nil {
		t.Fatal(err)
	}
	// a: rows (1,10) (3,5); b: rows (2,-7) (4,-8). AVG truncates toward zero;
	// MAX is over v*(10-d).
	want := []string{"a|2|15|7|5|90", "b|2|-15|-7|-8|-48"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("refEval = %v, want %v", got, want)
	}
	if sqlText := s.sql(); sqlText != "SELECT k, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v * (10 - d)) FROM t WHERE d < 9 GROUP BY k" {
		t.Errorf("sql = %s", sqlText)
	}
	none, err := refEval(cat, shape{Table: "t", Preds: []pred{{Col: "k", Op: "=", Str: "z", IsStr: true}}, Aggs: []agg{{Fn: "COUNT"}}})
	if err != nil || len(none) != 0 {
		t.Errorf("an aggregate over no rows gave %v, %v; the program returns no row", none, err)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "exec_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "queries_per_s", Better: "higher", Bound: 0.1}
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01} }
	for _, c := range []struct {
		d          metricDef
		base, next []float64
		want       string
	}{
		{lower, steady(100), steady(105), "same"},
		{lower, steady(100), steady(120), "worse"},
		{lower, steady(100), steady(80), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, []float64{80, 100, 130}, steady(120), "unresolved"},
	} {
		if _, got := verdict(c.d, c.base, c.next); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.base, c.next, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps the contract file at the root of the
// repository equal to what the program emits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n spec %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs: json has %d metrics, spec %d", len(bj.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	contract := contractWorkloads()
	if len(bj.Workloads) != len(contract) {
		t.Fatalf("%d workloads in json, %d marked inContract in the program", len(bj.Workloads), len(contract))
	}
	for i, w := range contract {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %q, program %q", i, bj.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", bj.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bj.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", bj.Command, bj.Paths)
	}
}

// TestQuickSmoke runs every workload at smoke-test size, untraced and
// traced, so that a change to the program that breaks the benchmark fails
// here and not in the next measurement.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := wl.run(runConfig{Seed: 1, Seconds: 0.1, Trace: trace, Quick: true, OutDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %s", wl.Name, trace, res.Failed, res.Attempted, res.FirstFailure)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: metric %s = %v, %v", wl.Name, trace, d.Name, v, ok)
				}
				if !trace && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, d.Name, v)
				}
			}
			if line, err := resultLine(defs, res); err != nil || !strings.HasPrefix(line, `{"attempted":`) {
				t.Errorf("%s: result line %q, %v", wl.Name, line, err)
			}
		}
	}
}
