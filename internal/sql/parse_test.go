package sql_test

import (
	"hash/fnv"
	"reflect"
	"testing"

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

// loadCatalog generates one workload's tables at scale factor sf on a small
// machine of its own.
func loadCatalog(t testing.TB, load func(*rt.Catalog, float64) error, sf float64) *rt.Catalog {
	t.Helper()
	cat := rt.NewCatalog(rt.NewDB(vm.New(vm.Config{Arch: vt.VX64, MemSize: 64 << 20})))
	if err := load(cat, sf); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestParseAllocBudget bounds what parsing the q6- and the q3-shaped ad-hoc
// statements allocates. Once a statement's program comes from the cache,
// parsing is the largest cost left on its path. Most of it used to be name
// lookups (q6: 410 allocations before they stopped allocating, 130 after);
// then the tokens, the qualified name built for every column and the join
// schemas plan.Validate rebuilt per expression (q3: 220 before, 118 after,
// q6 86).
func TestParseAllocBudget(t *testing.T) {
	cat := loadCatalog(t, tpch.Load, 0.001)
	for _, c := range []struct {
		name, sql string
		budget    float64
	}{
		{"q6", "SELECT SUM(l_extendedprice * l_discount), COUNT(*) FROM lineitem " +
			"WHERE l_shipdate >= 9000 AND l_shipdate < 9365 AND l_discount >= 3 AND l_discount <= 6 AND l_quantity < 24", 110},
		{"q3", "SELECT o_orderkey, SUM(l_extendedprice * (100 - l_discount)) AS revenue " +
			"FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey " +
			"WHERE c_mktsegment = 'BUILDING' AND o_orderdate < 9200 AND l_shipdate > 9200 " +
			"GROUP BY o_orderkey ORDER BY revenue DESC, o_orderkey LIMIT 10", 150},
	} {
		n := testing.AllocsPerRun(50, func() {
			if _, err := sql.Parse(c.sql, cat); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations", c.name, n)
		if n > c.budget {
			t.Errorf("parsing the %s-shaped statement allocates %v times, budget %v", c.name, n, c.budget)
		}
	}
}

// FuzzParse feeds arbitrary text to Parse over the TPC-H and the TPC-DS
// schema. Parse must not panic, and a plan it returns must validate and have
// a canonical form. A statement that parses also gets a twin: the same text
// with other literal values, which has the same ShapeKey. Bound from the
// statement's Shape, the twin either declines or gives what parsing it
// gives: the same fingerprint key, the same literal values, the same column
// names. The committed corpus holds every workload statement and the
// sql_adhoc family statements.
//
//	go test ./internal/sql -run '^$' -fuzz FuzzParse -fuzztime 10s
func FuzzParse(f *testing.F) {
	cats := []*rt.Catalog{loadCatalog(f, tpch.Load, 0.001), loadCatalog(f, tpcds.Load, 0.001)}
	// Literals whose type the parser chose by their value: one that does not
	// fit its column's I32 (a twin that fits parses to another plan), and
	// numbers with a point against F64 and decimal operands.
	f.Add("SELECT COUNT(*) FROM lineitem WHERE l_shipdate < 5000000000 AND l_quantity > -3")
	f.Add("SELECT SUM(l_discount), COUNT(*) FROM lineitem WHERE l_discount BETWEEN 0.05 AND 0.07")
	f.Add("SELECT COUNT(*) FROM customer WHERE c_acctbal * 1.5 > -0.5 AND c_mktsegment LIKE 'B%'")
	f.Fuzz(func(t *testing.T, text string) {
		for _, cat := range cats {
			n, shape, err := sql.ParseShape(text, cat)
			if err != nil {
				continue
			}
			if err := plan.Validate(n); err != nil {
				t.Fatalf("%q: parsed to an invalid plan: %v", text, err)
			}
			var fp plan.Fingerprint
			if !fp.Write(n) {
				t.Fatalf("%q: parsed to a plan without a fingerprint", text)
			}
			if shape != nil {
				checkTwin(t, text, cat, n, shape, &fp)
			}
		}
	})
}

// twinValues are the literals checkTwin writes in a twin, by kind.
var twinValues = [3][]string{
	{"0", "7", "127", "128", "32768", "40000", "2147483648", "5000000000", "99999999999999999999"},
	{"0.5", "1.25", "0.051", "0.050", "12.3", "3.14159", "99999999999999999999.5"},
	{"", "A", "BUILDING", "x%", "%a_b%", "twelve-bytes"},
}

// checkTwin rewrites the literals of text, which parsed to n with shape,
// and holds the shape's binding of the twin to a parse of the twin.
func checkTwin(t *testing.T, text string, cat *rt.Catalog, n plan.Node, shape *sql.Shape, fp *plan.Fingerprint) {
	key, lits, err := sql.ShapeKey(nil, nil, text)
	if err != nil {
		t.Fatalf("%q parses but has no shape key: %v", text, err)
	}
	b := shape.Binder(fp.Lits, len(lits))
	if b == nil {
		t.Fatalf("%q: a literal of its plan is none the parser recorded", text)
	}
	if vals, ok := b.Bind(nil, lits); !ok || !reflect.DeepEqual(vals, litValues(fp.Lits)) {
		t.Fatalf("%q: bound to itself, gives %v (ok %v), want %v", text, vals, ok, litValues(fp.Lits))
	}
	h := fnv.New32a()
	h.Write([]byte(text))
	seed := int(h.Sum32() % 1024)
	// Across the twins, every literal takes every value of its kind.
	for k := 0; k < len(twinValues[0]); k++ {
		twin := sql.Twin(text, func(i int, raw string, point, str bool) string {
			kind := 0
			if point {
				kind = 1
			} else if str {
				kind = 2
			}
			vs := twinValues[kind]
			return vs[(seed+k+i)%len(vs)]
		})
		checkBinding(t, text, twin, cat, n, fp, key, b)
	}
}

// checkBinding holds b's binding of twin, a twin of text, to a parse of
// twin.
func checkBinding(t *testing.T, text, twin string, cat *rt.Catalog, n plan.Node, fp *plan.Fingerprint, key []byte, b *sql.Binder) {
	key2, lits2, err := sql.ShapeKey(nil, nil, twin)
	if err != nil || string(key2) != string(key) {
		t.Fatalf("twin %q of %q: shape key %q (%v), want %q", twin, text, key2, err, key)
	}
	vals, ok := b.Bind(nil, lits2)
	if !ok {
		return // declined
	}
	n2, err := sql.Parse(twin, cat)
	if err != nil {
		t.Fatalf("twin %q of %q binds but does not parse: %v", twin, text, err)
	}
	var fp2 plan.Fingerprint
	fp2.Write(n2)
	if string(fp2.Key) != string(fp.Key) || !reflect.DeepEqual(fp2.Tables, fp.Tables) {
		t.Fatalf("twin %q of %q: parsed to another shape", twin, text)
	}
	if want := litValues(fp2.Lits); !reflect.DeepEqual(vals, want) {
		t.Fatalf("twin %q of %q: bound to %v, parsed to %v", twin, text, vals, want)
	}
	if c1, c2 := n.Schema(), n2.Schema(); !reflect.DeepEqual(c1, c2) {
		t.Fatalf("twin %q of %q: columns %v, parsed %v", twin, text, c1, c2)
	}
}

// litValues is the value of each literal, encoded as the constant pool
// encodes it.
func litValues(lits []plan.Expr) []qir.PoolConst {
	var vals []qir.PoolConst
	for _, l := range lits {
		v, _ := codegen.PoolConstOf(l)
		vals = append(vals, v)
	}
	return vals
}
