package sql

import (
	"slices"
	"strings"
	"testing"

	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

func testCatalog(t *testing.T) *rt.Catalog {
	t.Helper()
	m := vm.New(vm.Config{Arch: vt.VX64, MemSize: 8 << 20})
	db := rt.NewDB(m)
	cat := rt.NewCatalog(db)
	cat.CreateTable("t", 4,
		rt.ColSpec{Name: "a", Type: qir.I64},
		rt.ColSpec{Name: "b", Type: qir.I32},
		rt.ColSpec{Name: "s", Type: qir.Str},
		rt.ColSpec{Name: "d", Type: qir.I128},
		rt.ColSpec{Name: "f", Type: qir.F64},
	)
	cat.CreateTable("u", 4,
		rt.ColSpec{Name: "a", Type: qir.I64},
		rt.ColSpec{Name: "x", Type: qir.Str},
	)
	return cat
}

func mustParse(t *testing.T, q string) plan.Node {
	t.Helper()
	n, err := Parse(q, testCatalog(t))
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return n
}

func TestParseShapes(t *testing.T) {
	cases := map[string]func(n plan.Node) bool{
		"SELECT * FROM t": func(n plan.Node) bool {
			_, ok := n.(*plan.Scan)
			return ok
		},
		"SELECT a, b FROM t": func(n plan.Node) bool {
			p, ok := n.(*plan.Project)
			return ok && len(p.Exprs) == 2
		},
		"SELECT a FROM t WHERE b > 3 AND s LIKE 'x%'": func(n plan.Node) bool {
			_, ok := n.(*plan.Project)
			return ok
		},
		// Keys then aggregates in order: no projection above the grouping.
		"SELECT b, COUNT(*) FROM t GROUP BY b": func(n plan.Node) bool {
			_, ok := n.(*plan.GroupBy)
			return ok
		},
		"SELECT COUNT(*), b FROM t GROUP BY b": func(n plan.Node) bool {
			p, ok := n.(*plan.Project)
			if !ok {
				return false
			}
			_, ok = p.Input.(*plan.GroupBy)
			return ok
		},
		// A derived table: the outer grouping reads the inner one's columns.
		"SELECT n, COUNT(*) FROM (SELECT b, COUNT(*) AS n FROM t GROUP BY b) x WHERE x.n > 1 GROUP BY n": func(n plan.Node) bool {
			g, ok := n.(*plan.GroupBy)
			if !ok {
				return false
			}
			s, ok := g.Input.(*plan.Select)
			if !ok {
				return false
			}
			_, ok = s.Input.(*plan.GroupBy)
			return ok
		},
		// A derived table joined like any table, built on as the smaller input.
		"SELECT sub.a, x FROM (SELECT a FROM t WHERE b > 3) sub JOIN u ON sub.a = u.a": func(n plan.Node) bool {
			p, ok := n.(*plan.Project)
			if !ok {
				return false
			}
			j, ok := p.Input.(*plan.HashJoin)
			if !ok {
				return false
			}
			_, ok = j.Build.(*plan.Project)
			return ok
		},
		"SELECT a FROM t ORDER BY a DESC LIMIT 3": func(n plan.Node) bool {
			l, ok := n.(*plan.Limit)
			if !ok || l.N != 3 {
				return false
			}
			_, ok = l.Input.(*plan.Sort)
			return ok
		},
		"SELECT t.a, x FROM t JOIN u ON t.a = u.a": func(n plan.Node) bool {
			p, ok := n.(*plan.Project)
			if !ok {
				return false
			}
			_, ok = p.Input.(*plan.HashJoin)
			return ok
		},
	}
	for q, check := range cases {
		n := mustParse(t, q)
		if !check(n) {
			t.Errorf("%q: unexpected plan\n%s", q, plan.Dump(n))
		}
	}
}

func TestParseDecimalLiteralScale(t *testing.T) {
	n := mustParse(t, "SELECT a FROM t WHERE d > 12.34")
	// The decimal literal must scale to cents (1234) and coerce col d.
	found := false
	var walk func(plan.Node)
	walk = func(x plan.Node) {
		if s, ok := x.(*plan.Select); ok {
			plan.Walk(s.Pred, func(e plan.Expr) {
				if c, ok := e.(*plan.ConstDec); ok && c.V.Lo == 1234 {
					found = true
				}
			})
		}
		for _, ch := range x.Children() {
			walk(ch)
		}
	}
	walk(n)
	if !found {
		t.Error("decimal literal 12.34 did not scale to 1234 cents")
	}
}

// TestParseCoercion pins the typing rules for integer literals: coerced,
// a literal becomes a literal of the target type rather than a cast; in a
// comparison or BETWEEN it takes the other operand's type if its value fits;
// arithmetic never narrows. Each case gives the WHERE predicate or, without
// one, the first select item, and the type of each literal in it.
func TestParseCoercion(t *testing.T) {
	for _, c := range []struct {
		sql, expr string
		lits      []string
	}{
		{"SELECT a FROM t WHERE b = 3", "(b = 3)", []string{"i32"}},
		{"SELECT a FROM t WHERE 3 < b", "(3 < b)", []string{"i32"}},
		{"SELECT a FROM t WHERE b = 3000000000", "(cast(b as i64) = 3000000000)", []string{"i64"}},
		{"SELECT a FROM t WHERE d < 24", "(d < 24)", []string{"dec"}},
		{"SELECT a FROM t WHERE d BETWEEN 1 AND 11", "(d between 1 and 11)", []string{"dec", "dec"}},
		{"SELECT a FROM t WHERE b BETWEEN 1 AND 3000000000", "(cast(b as i64) between 1 and 3000000000)", []string{"i64", "i64"}},
		{"SELECT b + 1 FROM t", "(cast(b as i64) + 1)", []string{"i64"}},
		{"SELECT a FROM t WHERE b + 1 > 2", "((cast(b as i64) + 1) > 2)", []string{"i64", "i64"}},
		{"SELECT d * 100 FROM t", "(d * 100)", []string{"dec"}},
		{"SELECT CASE WHEN b > 0 THEN d ELSE 0 END FROM t", "(case when (b > 0) then d else 0)", []string{"i32", "dec"}},
		{"SELECT CAST(b AS BIGINT) FROM t", "cast(b as i64)", nil},
		{"SELECT CAST(a AS bigint) FROM t", "a", nil},
		{"SELECT f * 2 FROM t", "(f * cast(2 as f64))", []string{"i64"}},
	} {
		p, ok := mustParse(t, c.sql).(*plan.Project)
		if !ok {
			t.Fatalf("%q: no projection on top", c.sql)
		}
		e := p.Exprs[0]
		if s, ok := p.Input.(*plan.Select); ok {
			e = s.Pred
		}
		var lits []string
		plan.Walk(e, func(x plan.Expr) {
			switch x := x.(type) {
			case *plan.ConstInt:
				lits = append(lits, x.Ty.String())
			case *plan.ConstDec:
				lits = append(lits, "dec")
			}
		})
		if e.String() != c.expr || !slices.Equal(lits, c.lits) {
			t.Errorf("%q: %s with literals %v, want %s with %v", c.sql, e, lits, c.expr, c.lits)
		}
	}
}

// TestParseGroupByMatchesKeys: a select item is matched to the GROUP BY key it
// equals, not to the key at its position, and one that equals no key is an
// error.
func TestParseGroupByMatchesKeys(t *testing.T) {
	cat := rt.NewCatalog(nil)
	cat.DeclareTable("lineitem", 100,
		rt.ColSpec{Name: "l_returnflag", Type: qir.Str},
		rt.ColSpec{Name: "l_linestatus", Type: qir.Str},
		rt.ColSpec{Name: "l_shipmode", Type: qir.Str})
	n, err := Parse("SELECT l_linestatus, l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag, l_linestatus", cat)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := n.(*plan.Project)
	if !ok {
		t.Fatalf("no projection over the grouping:\n%s", plan.Dump(n))
	}
	for i, want := range []struct {
		idx  int
		name string
	}{{1, "l_linestatus"}, {0, "l_returnflag"}, {2, "agg2"}} {
		if c := p.Exprs[i].(*plan.Col); c.Idx != want.idx || p.Names[i] != want.name {
			t.Errorf("select item %d reads group column %d as %q, want %d as %q", i, c.Idx, p.Names[i], want.idx, want.name)
		}
	}
	for _, bad := range []string{
		"SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_returnflag",
		"SELECT * FROM lineitem GROUP BY l_returnflag",
		"SELECT l_shipmode, COUNT(*) FROM lineitem",
	} {
		if _, err := Parse(bad, cat); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func TestParseCase(t *testing.T) {
	mustParse(t, "SELECT CASE WHEN b > 0 THEN a ELSE 0 END FROM t")
	mustParse(t, "SELECT SUM(CASE WHEN s LIKE 'a%' THEN 1 ELSE 0 END) FROM t")
}

func TestParseErrors(t *testing.T) {
	cat := testCatalog(t)
	for _, bad := range []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM nope",
		"SELECT nope FROM t",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE s > 3",
		"SELECT a FROM t GROUP BY",
		"SELECT a, COUNT(*) FROM t GROUP BY b ORDER", // a is not a group key / trailing
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t JOIN u ON a",
		"SELECT a FROM t WHERE s LIKE 3",
		"SELECT SUM(*) FROM t",
		"SELECT CAST(b AS INT) FROM t",
		"SELECT CAST(s AS BIGINT) FROM t",
		"SELECT CAST(b BIGINT) FROM t",
		"SELECT b FROM (SELECT b FROM t",
	} {
		if _, err := Parse(bad, cat); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func TestParseAmbiguousColumn(t *testing.T) {
	// Column a exists in both t and u: unqualified reference after a join
	// must fail, qualified must work.
	cat := testCatalog(t)
	if _, err := Parse("SELECT a FROM t JOIN u ON t.a = u.a", cat); err == nil {
		t.Error("ambiguous column accepted")
	}
	if _, err := Parse("SELECT t.a FROM t JOIN u ON t.a = u.a", cat); err != nil {
		t.Errorf("qualified column rejected: %v", err)
	}
}

func TestLexStringsAndOperators(t *testing.T) {
	toks, err := lex("SELECT 'a b''x' <= <> != 1.5")
	_ = toks
	// Note: embedded quotes are not supported; the first string ends at
	// the second quote. This just must not crash or mis-tokenize ops.
	if err != nil {
		t.Fatal(err)
	}
	has := func(txt string) bool {
		for _, tk := range toks {
			if tk.text == txt {
				return true
			}
		}
		return false
	}
	for _, op := range []string{"<=", "<>", "!="} {
		if !has(op) {
			t.Errorf("operator %s not lexed", op)
		}
	}
	if !strings.Contains("SELECT", "SELECT") {
		t.Fatal()
	}
}

// oldLookup is the lookup this package used to do — upper-casing every bound
// name per identifier, and splitting it again for the suffix pass — over the
// qualified names tableRef used to build (alias+"."+col), kept as the oracle
// for the allocation-free one.
func oldLookup(names []string, types []qir.Type, name string) (int, qir.Type, bool) {
	up := strings.ToUpper(name)
	for i, n := range names {
		if strings.ToUpper(n) == up {
			return i, types[i], true
		}
	}
	found := -1
	for i, n := range names {
		parts := strings.Split(strings.ToUpper(n), ".")
		if parts[len(parts)-1] == up {
			if found >= 0 {
				return 0, 0, false
			}
			found = i
		}
	}
	if found >= 0 {
		return found, types[found], true
	}
	return 0, 0, false
}

func TestBindingLookupMatchesOld(t *testing.T) {
	col := func(name string, ty qir.Type) plan.ColInfo { return plan.ColInfo{Name: name, Type: ty} }
	tabs := []boundTable{
		{qual: "t", cols: []plan.ColInfo{col("a", qir.I64), col("b", qir.I32)}},
		{qual: "u", cols: []plan.ColInfo{col("a", qir.I64), col("X", qir.Str)}},
		{cols: []plan.ColInfo{col("total", qir.I128)}},
		{qual: "t", cols: []plan.ColInfo{col("total", qir.F64)}},
		{qual: "v.w", cols: []plan.ColInfo{col("z", qir.I8)}},
		{cols: []plan.ColInfo{col("g.h", qir.I16)}}, // a group key named by its qualified column
	}
	var names []string
	var types []qir.Type
	for _, tb := range tabs {
		for _, c := range tb.cols {
			if tb.qual != "" {
				names = append(names, tb.qual+"."+c.Name)
			} else {
				names = append(names, c.Name)
			}
			types = append(types, c.Type)
		}
	}
	// at reverses the ordinals: lookup must apply it to both of its passes.
	at := make([]int, len(names))
	for i := range at {
		at[i] = len(at) - 1 - i
	}
	for _, b := range []*binding{{tabs: tabs}, {tabs: tabs, at: at}} {
		for _, name := range []string{
			"t.a", "T.A", "u.a", "a", "A", // qualified, case, ambiguous suffix
			"b", "x", "U.x", "X", // unique suffix
			"total", "TOTAL", "t.total", // exact bare name wins over its qualified twin
			"z", "w.z", "v.w.z", "V.W.Z", "v.w", "nope", "t.", "", ".a", "t.b.", "tt.a", "t.aa",
			"g.h", "h", "G.H",
		} {
			i, ty, ok := b.lookup(name)
			oi, oty, ook := oldLookup(names, types, name)
			if ook && b.at != nil {
				oi = b.at[oi]
			}
			if i != oi || ty != oty || ok != ook {
				t.Errorf("at=%v: lookup(%q) = %d %s %v, old lookup %d %s %v", b.at != nil, name, i, ty, ok, oi, oty, ook)
			}
		}
		if n := testing.AllocsPerRun(100, func() { b.lookup("X") }); n != 0 {
			t.Errorf("lookup allocates %v times", n)
		}
	}
}
