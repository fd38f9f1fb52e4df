package sql_test

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qcc/internal/engine"
	"qcc/internal/plan"
	"qcc/internal/rt"
	"qcc/internal/sql"
	"qcc/internal/tpch"
	"qcc/internal/vm"
)

// family is constant variant v of family f of the benchmark's sql_adhoc
// workload (benchmark/stream.go): 2 is q3-shaped, 3 q12-shaped, the others
// read one table.
func family(f, v int) string {
	segments := []string{"BUILDING", "AUTOMOBILE", "MACHINERY", "FURNITURE", "HOUSEHOLD"}
	n := int64(v)
	switch f {
	case 0:
		return fmt.Sprintf("SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), "+
			"SUM(l_extendedprice * (100 - l_discount)), AVG(l_quantity), AVG(l_extendedprice), COUNT(*) "+
			"FROM lineitem WHERE l_shipdate <= %d GROUP BY l_returnflag, l_linestatus", 10400-15*n)
	case 1:
		lo := 9000 + 20*n
		return fmt.Sprintf("SELECT SUM(l_extendedprice * l_discount), COUNT(*) FROM lineitem "+
			"WHERE l_shipdate >= %d AND l_shipdate < %d AND l_discount >= %d AND l_discount <= %d AND l_quantity < %d",
			lo, lo+365, 3+n%3, 6+n%3, 24+n%6)
	case 2:
		d := 9200 - 10*n
		return fmt.Sprintf("SELECT o_orderkey, SUM(l_extendedprice * (100 - l_discount)) AS revenue "+
			"FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey "+
			"WHERE c_mktsegment = '%s' AND o_orderdate < %d AND l_shipdate > %d "+
			"GROUP BY o_orderkey ORDER BY revenue DESC, o_orderkey LIMIT 10", segments[v%len(segments)], d, d)
	case 3:
		lo := 8400 + 30*n
		return fmt.Sprintf("SELECT l_shipmode, COUNT(*), SUM(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END) "+
			"FROM orders JOIN lineitem ON o_orderkey = l_orderkey "+
			"WHERE l_receiptdate >= %d AND l_receiptdate < %d AND l_commitdate < l_receiptdate "+
			"GROUP BY l_shipmode", lo, lo+365)
	case 4:
		lo := 8100 + 40*n
		return fmt.Sprintf("SELECT o_orderpriority, COUNT(*), SUM(o_totalprice) FROM orders "+
			"WHERE o_orderdate >= %d AND o_orderdate < %d GROUP BY o_orderpriority", lo, lo+500)
	default:
		return fmt.Sprintf("SELECT c_nationkey, COUNT(*), AVG(c_acctbal), MAX(c_acctbal) FROM customer "+
			"WHERE c_acctbal > %d AND c_mktsegment = '%s' GROUP BY c_nationkey", 2000*n, segments[v%len(segments)])
	}
}

func loadTPCH(t testing.TB, sf float64) *engine.World {
	t.Helper()
	w := engine.NewWorld(engine.Options{MemMB: 64})
	if err := w.Load("tpch", sf); err != nil {
		t.Fatal(err)
	}
	return w
}

// parseBoth plans q with Parse and with the oracle.
func parseBoth(t testing.TB, q string, cat *rt.Catalog) (planned, oracle plan.Node) {
	t.Helper()
	planned, err := sql.Parse(q, cat)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	oracle, err = sql.OldParse(q, cat)
	if err != nil {
		t.Fatalf("oracle: %q: %v", q, err)
	}
	return planned, oracle
}

// counted is one execution: its canonical rows, the vm instructions it ran,
// and its trap code or error, if it failed.
type counted struct {
	rows     []string
	executed int64
	fail     string
}

func run(t testing.TB, w *engine.World, eng string, node plan.Node) counted {
	t.Helper()
	lowered, err := w.Lower("q", node)
	if err != nil {
		t.Fatalf("%s: compile: %v", eng, err)
	}
	p, err := w.Compile(engine.Backend(eng), lowered)
	if err != nil {
		t.Fatalf("%s: compile: %v", eng, err)
	}
	executed := w.DB.M.Executed
	_, err = w.Run(p)
	c := counted{rows: w.DB.Out.Canonical(), executed: w.DB.M.Executed - executed}
	w.Release()
	if err != nil {
		var trap *vm.Trap
		if !errors.As(err, &trap) {
			t.Fatalf("%s: run: %v", eng, err)
		}
		c.rows, c.fail = nil, trap.Code.String()
	}
	return c
}

// TestCountersSQLJoinPlans is the deterministic twin of the claim that
// planning the joins cuts sql_adhoc's execution: at sf 0.02 on the four
// engines the workload opens, every constant variant of the q3- and the
// q12-shaped family statement runs at most half the vm instructions of the
// oracle's plan, with equal rows (measured 0.27–0.36). The families that read
// one table, and a sample of single-table statements, plan exactly as the
// oracle does: equal plan.Fingerprint keys, equal trees.
func TestCountersSQLJoinPlans(t *testing.T) {
	w := loadTPCH(t, 0.02)
	variants := 5
	if testing.Short() {
		variants = 2
	}
	for _, eng := range []string{"directemit", "cranelift", "llvm-opt", "gcc"} {
		for _, f := range []int{2, 3} {
			for v := 0; v < variants; v++ {
				q := family(f, v)
				planned, oracle := parseBoth(t, q, w.Cat)
				got, want := run(t, w, eng, planned), run(t, w, eng, oracle)
				if got.fail != "" || want.fail != "" || !reflect.DeepEqual(got.rows, want.rows) {
					t.Errorf("%s f%dv%d: %d rows (trap %q), oracle %d rows (trap %q)",
						eng, f, v, len(got.rows), got.fail, len(want.rows), want.fail)
				}
				if got.executed*2 > want.executed {
					t.Errorf("%s f%dv%d: %d vm instructions, more than half the oracle plan's %d",
						eng, f, v, got.executed, want.executed)
				}
				if v == 0 {
					t.Logf("%s f%d: %d vm instructions, oracle %d (%.2f)",
						eng, f, got.executed, want.executed, float64(got.executed)/float64(want.executed))
				}
			}
		}
	}

	var stmts []string
	for _, f := range []int{0, 1, 4, 5} {
		for v := 0; v < 8; v++ {
			stmts = append(stmts, family(f, v))
		}
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 100; i++ {
		stmts = append(stmts, genStatement(rng, 1).sql)
	}
	for _, q := range stmts {
		planned, oracle := parseBoth(t, q, w.Cat)
		var fp, ofp plan.Fingerprint
		if !fp.Write(planned) || !ofp.Write(oracle) || string(fp.Key) != string(ofp.Key) {
			t.Errorf("%q: fingerprint differs from the oracle's", q)
		}
		if !reflect.DeepEqual(planned, oracle) {
			t.Errorf("%q: plan differs from the oracle's\n%s\noracle:\n%s", q, plan.Dump(planned), plan.Dump(oracle))
		}
	}
}

// TestQ3PlansAsQ3Param: the q3-shaped family statement plans its joins as the
// SQL of tpch q3 does — each scan filtered by its own conjunct, customer
// the build side of its join with orders, and that join the build side of
// the join with lineitem, on the same key columns.
func TestQ3PlansAsQ3Param(t *testing.T) {
	w := loadTPCH(t, 0.02)
	planned, err := sql.Parse(family(2, 0), w.Cat)
	if err != nil {
		t.Fatal(err)
	}
	var want plan.Node
	for _, q := range tpch.Queries() {
		if q.Name == "q3" {
			want = q.Build()
		}
	}
	if got, want := joinShape(planned), joinShape(want); got != want {
		t.Errorf("join tree\n%s\nwant, as tpch q3\n%s", got, want)
	}
}

// joinShape renders the join tree under a plan's grouping: scans, the columns
// each filter reads, and each join's build and probe keys.
func joinShape(n plan.Node) string {
	var sb strings.Builder
	var rec func(n plan.Node, depth int)
	rec = func(n plan.Node, depth int) {
		indent := strings.Repeat("  ", depth)
		switch x := n.(type) {
		case *plan.Scan:
			fmt.Fprintf(&sb, "%sscan %s\n", indent, x.Table)
		case *plan.Select:
			fmt.Fprintf(&sb, "%sfilter on %v\n", indent, cols(x.Pred))
			rec(x.Input, depth+1)
		case *plan.HashJoin:
			fmt.Fprintf(&sb, "%sjoin build %v probe %v\n", indent, cols(x.BuildKeys...), cols(x.ProbeKeys...))
			rec(x.Build, depth+1)
			rec(x.Probe, depth+1)
		default:
			for _, c := range n.Children() {
				rec(c, depth)
			}
		}
	}
	rec(n, 0)
	return sb.String()
}

// cols lists the column ordinals es read.
func cols(es ...plan.Expr) []int {
	var idx []int
	for _, e := range es {
		plan.Walk(e, func(x plan.Expr) {
			if c, ok := x.(*plan.Col); ok {
				idx = append(idx, c.Idx)
			}
		})
	}
	return idx
}

// genTable is what the statement generator may do with one TPC-H table.
type genTable struct {
	name  string
	keys  []string  // group keys
	aggs  []string  // aggregate arguments
	cmps  []genPred // comparisons and BETWEENs with constants
	strs  []string  // string equalities and LIKEs
	traps []genPred // predicates with arithmetic, which may trap
}

// genPred is a predicate whose constant, %[1]d, is drawn from [lo, hi);
// %[2]d is that constant plus a sixth of the range.
type genPred struct {
	f      string
	lo, hi int64
}

func (p genPred) draw(rng *rand.Rand) string {
	if p.hi == 0 {
		return p.f
	}
	v := p.lo + rng.Int63n(p.hi-p.lo)
	return fmt.Sprintf(p.f, v, v+(p.hi-p.lo)/6)
}

var genTables = []genTable{
	{name: "lineitem",
		keys: []string{"l_returnflag", "l_linestatus", "l_shipmode"},
		aggs: []string{"l_quantity", "l_extendedprice", "l_discount", "l_extendedprice * l_discount"},
		cmps: []genPred{{"l_shipdate < %[1]d", 8000, 10500}, {"l_shipdate >= %[1]d", 8000, 10500},
			{"l_receiptdate BETWEEN %[1]d AND %[2]d", 8000, 10500}, {"l_quantity > %[1]d", 1, 50}},
		strs: []string{"l_shipmode = 'AIR'", "l_returnflag = 'R'", "l_shipmode LIKE '%AIL'", "l_commitdate < l_receiptdate"},
		traps: []genPred{{"l_quantity / (l_discount - %[1]d) > 2", 0, 11},
			{f: "l_extendedprice * (100 - l_discount) > 30000000"}}},
	{name: "orders",
		keys: []string{"o_orderstatus", "o_orderpriority"},
		aggs: []string{"o_totalprice", "o_orderdate"},
		cmps: []genPred{{"o_orderdate < %[1]d", 8000, 10500}, {"o_orderdate BETWEEN %[1]d AND %[2]d", 8000, 10500},
			{"o_totalprice > %[1]d", 1000, 50001000}},
		strs:  []string{"o_orderstatus = 'F'", "o_orderpriority = '1-URGENT'", "o_orderpriority LIKE '%LOW'"},
		traps: []genPred{{"o_totalprice / (o_orderdate %% 16 - %[1]d) > 0", 0, 16}}},
	{name: "customer",
		keys:  []string{"c_mktsegment", "c_nationkey"},
		aggs:  []string{"c_acctbal", "c_nationkey"},
		cmps:  []genPred{{"c_acctbal > %[1]d", -99999, 900000}, {"c_nationkey BETWEEN %[1]d AND %[2]d", 0, 25}},
		strs:  []string{"c_mktsegment = 'BUILDING'", "c_mktsegment LIKE 'MA%'", "c_name LIKE '%1'"},
		traps: []genPred{{"c_acctbal * 1000 > %[1]d", 0, 900000000}}},
	{name: "nation",
		keys: []string{"n_regionkey", "n_name"},
		aggs: []string{"n_nationkey"},
		cmps: []genPred{{"n_regionkey < %[1]d", 0, 5}},
		strs: []string{"n_name = 'CHINA'", "n_name LIKE '%A'"}},
	{name: "supplier",
		keys: []string{"s_nationkey"},
		aggs: []string{"s_suppkey"},
		cmps: []genPred{{"s_nationkey >= %[1]d", 0, 25}},
		strs: []string{"s_name LIKE '%3'"}},
	{name: "part",
		keys: []string{"p_brand", "p_size"},
		aggs: []string{"p_size"},
		cmps: []genPred{{"p_size <= %[1]d", 1, 51}},
		strs: []string{"p_brand = 'Brand#23'", "p_type LIKE '%BRASS'"}},
}

// genEdges are the joins the generator builds: a key column of each table.
var genEdges = [][4]string{
	{"customer", "c_custkey", "orders", "o_custkey"},
	{"orders", "o_orderkey", "lineitem", "l_orderkey"},
	{"nation", "n_nationkey", "customer", "c_nationkey"},
	{"nation", "n_nationkey", "supplier", "s_nationkey"},
	{"supplier", "s_suppkey", "lineitem", "l_suppkey"},
	{"part", "p_partkey", "lineitem", "l_partkey"},
}

// genCross are predicates over two tables: the tables, then the predicate.
var genCross = [][3]string{
	{"orders", "lineitem", "l_shipdate >= o_orderdate"},
	{"customer", "orders", "o_totalprice > c_acctbal"},
	{"customer", "supplier", "c_nationkey = s_nationkey"},
	{"nation", "customer", "n_regionkey < c_nationkey"},
	{"orders", "lineitem", "o_orderdate + 60 > l_commitdate"},
	{"customer", "supplier", "100 / (c_nationkey - s_nationkey) > 0"},
}

// generated is one generated statement.
type generated struct {
	sql  string
	star bool
}

// genStatement draws a statement over n tables joined along foreign keys:
// conjuncts over one table (comparisons, BETWEEN, string equality, LIKE),
// over two, and with arithmetic, which may trap; SELECT *, a projection or a
// grouping; and ORDER BY every output column, with a LIMIT or not, so that
// the rows a LIMIT keeps do not depend on the order ties arrive in.
func genStatement(rng *rand.Rand, n int) generated {
	byName := map[string]genTable{}
	for _, t := range genTables {
		byName[t.name] = t
	}
	tabs := []genTable{genTables[rng.Intn(3)]}
	in := map[string]bool{tabs[0].name: true}
	from := tabs[0].name
	for len(tabs) < n {
		var cands [][4]string
		for _, e := range genEdges {
			if in[e[0]] != in[e[2]] {
				cands = append(cands, e)
			}
		}
		e := cands[rng.Intn(len(cands))]
		if in[e[0]] {
			e = [4]string{e[2], e[3], e[0], e[1]}
		}
		tabs = append(tabs, byName[e[0]])
		in[e[0]] = true
		on := e[1] + " = " + e[3]
		if rng.Intn(2) == 0 {
			on = e[3] + " = " + e[1]
		}
		from += " JOIN " + e[0] + " ON " + on
	}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	var preds []string
	for i, k := 0, rng.Intn(5); i < k; i++ {
		t := tabs[rng.Intn(len(tabs))]
		switch r := rng.Intn(10); {
		case r < 4:
			preds = append(preds, t.cmps[rng.Intn(len(t.cmps))].draw(rng))
		case r < 6:
			preds = append(preds, pick(t.strs))
		case r < 8 && n > 1:
			var cands []string
			for _, c := range genCross {
				if in[c[0]] && in[c[1]] {
					cands = append(cands, c[2])
				}
			}
			if len(cands) > 0 {
				preds = append(preds, pick(cands))
			}
		case len(t.traps) > 0:
			preds = append(preds, t.traps[rng.Intn(len(t.traps))].draw(rng))
		}
	}
	g := generated{star: n > 1 && rng.Intn(6) == 0}
	var items, keys []string
	switch {
	case g.star:
		items = []string{"*"}
	case rng.Intn(3) == 0:
		for i, k := 0, 1+rng.Intn(3); i < k; i++ {
			t := tabs[rng.Intn(len(tabs))]
			items = append(items, pick(append([]string{t.aggs[0]}, t.keys...)))
		}
	default:
		for i, k := 0, rng.Intn(3); i < k; i++ {
			if key := pick(tabs[rng.Intn(len(tabs))].keys); !slices.Contains(keys, key) {
				keys = append(keys, key)
			}
		}
		items = append(items, keys...)
		for i, k := 0, 1+rng.Intn(3); i < k; i++ {
			fn, arg := pick([]string{"SUM", "COUNT", "MIN", "MAX", "AVG"}), "*"
			if fn != "COUNT" {
				arg = pick(tabs[rng.Intn(len(tabs))].aggs)
			}
			items = append(items, fmt.Sprintf("%s(%s) AS a%d", fn, arg, i))
		}
	}
	g.sql = "SELECT " + strings.Join(items, ", ") + " FROM " + from
	if len(preds) > 0 {
		g.sql += " WHERE " + strings.Join(preds, " AND ")
	}
	if len(keys) > 0 {
		g.sql += " GROUP BY " + strings.Join(keys, ", ")
	}
	if !g.star && rng.Intn(2) == 0 {
		var order []string
		for _, it := range items {
			order = append(order, it[strings.LastIndexByte(it, ' ')+1:]) // the alias of an aggregate
		}
		g.sql += " ORDER BY " + strings.Join(order, ", ")
		if rng.Intn(2) == 0 {
			g.sql += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(8))
		}
	}
	return g
}

// TestJoinPlanDifferential runs generated two- and three-table statements
// and hand-written cases, planned and as the oracle plans them, on every
// engine qc.Engines lists: the canonical rows are equal, SELECT * has the
// oracle's column names in the oracle's order, and a statement that traps
// when planned traps under the oracle with the same code. Planning may
// remove a trap, by filtering rows before a conjunct with arithmetic sees
// them, but never add one.
func TestJoinPlanDifferential(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 12
	}
	stmts := []generated{
		// A self-join through aliases, the join key on either side.
		{sql: "SELECT a.o_orderkey, b.o_custkey FROM orders a JOIN orders b ON b.o_custkey = a.o_custkey " +
			"WHERE a.o_orderdate < 9000 AND b.o_orderstatus = 'F' AND a.o_totalprice > b.o_totalprice"},
		{sql: "SELECT * FROM customer x JOIN orders o ON o.o_custkey = x.c_custkey JOIN customer y ON y.c_custkey = x.c_custkey " +
			"WHERE y.c_mktsegment = 'BUILDING' AND o.o_orderdate BETWEEN 8500 AND 9500", star: true},
		// Join keys with arithmetic, on the side that builds and the side that probes.
		{sql: "SELECT COUNT(*), SUM(l_quantity) FROM orders JOIN lineitem ON o_orderkey + 1 = l_orderkey WHERE l_shipdate < 9000"},
		{sql: "SELECT o_orderpriority, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey * 2 " +
			"WHERE o_orderstatus = 'O' GROUP BY o_orderpriority"},
		// A filter that makes the table named first the smaller input.
		{sql: "SELECT * FROM customer JOIN nation ON n_nationkey = c_nationkey WHERE c_mktsegment = 'MACHINERY'", star: true},
	}
	rng := rand.New(rand.NewSource(20))
	for len(stmts) < n {
		stmts = append(stmts, genStatement(rng, 2+rng.Intn(2)))
	}
	w := loadTPCH(t, 0.01)
	removed, trapped := 0, 0
	for _, st := range stmts {
		planned, oracle := parseBoth(t, st.sql, w.Cat)
		if st.star && !reflect.DeepEqual(planned.Schema(), oracle.Schema()) {
			t.Errorf("%q: SELECT * columns %v, oracle %v", st.sql, planned.Schema(), oracle.Schema())
		}
		for _, eng := range engine.BackendNames() {
			got, want := run(t, w, eng, planned), run(t, w, eng, oracle)
			switch {
			case got.fail != "" && got.fail != want.fail:
				t.Errorf("%s: %q traps (%s), the oracle's plan %s", eng, st.sql, got.fail, cmp.Or(want.fail, "does not"))
			case got.fail != "":
				trapped++
			case want.fail != "":
				removed++
			case !reflect.DeepEqual(got.rows, want.rows):
				t.Errorf("%s: %q: %d rows, oracle %d\n%s\noracle:\n%s", eng, st.sql, len(got.rows), len(want.rows),
					plan.Dump(planned), plan.Dump(oracle))
			}
		}
	}
	t.Logf("%d statements × %d engines: %d executions trapped in both plans, %d only in the oracle's",
		len(stmts), len(engine.BackendNames()), trapped, removed)

	for _, q := range []string{
		"SELECT o_orderkey FROM orders a JOIN orders b ON a.o_orderkey = b.o_orderkey",
		"SELECT COUNT(*) FROM orders a JOIN orders b ON a.o_orderkey = b.o_orderkey WHERE o_orderdate < 9000",
		"SELECT o_orderstatus, COUNT(*) FROM orders a JOIN orders b ON a.o_orderkey = b.o_orderkey GROUP BY o_orderstatus",
	} {
		_, err := sql.Parse(q, w.Cat)
		_, oerr := sql.OldParse(q, w.Cat)
		if err == nil || oerr == nil {
			t.Errorf("%q: an ambiguous bare column parsed (err %v, oracle %v)", q, err, oerr)
		}
	}
}
