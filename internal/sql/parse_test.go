package sql_test

import (
	"testing"

	"qcc/internal/plan"
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
// a canonical form. The committed corpus holds every workload statement and
// the sql_adhoc family statements.
//
//	go test ./internal/sql -run '^$' -fuzz FuzzParse -fuzztime 10s
func FuzzParse(f *testing.F) {
	cats := []*rt.Catalog{loadCatalog(f, tpch.Load, 0.001), loadCatalog(f, tpcds.Load, 0.001)}
	f.Fuzz(func(t *testing.T, text string) {
		for _, cat := range cats {
			n, err := sql.Parse(text, cat)
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
		}
	})
}
