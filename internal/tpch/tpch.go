// Package tpch provides a laptop-scale synthetic analog of the TPC-H
// benchmark: the schema, a deterministic data generator parameterized by
// scale factor, and 22 queries in SQL whose operator shapes follow the
// official queries (joins, aggregations, selective predicates, sorts).
// Absolute data volumes are far below the official 10/100 GiB scale factors,
// but relative table proportions and query structure are preserved, which is
// what the compile-time/run-time trade-off experiments depend on.
package tpch

import (
	"fmt"
	"sync"

	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
)

// rowsAt returns per-table row counts at a scale factor. SF=1 corresponds
// to 60k lineitems (1/100 of official SF1, keeping proportions).
func rowsAt(sf float64) map[string]int64 {
	n := func(base float64) int64 {
		v := int64(base * sf)
		if v < 8 {
			v = 8
		}
		return v
	}
	return map[string]int64{
		"lineitem": n(60000),
		"orders":   n(15000),
		"customer": n(1500),
		"part":     n(2000),
		"supplier": n(100),
		"nation":   25,
		"region":   5,
	}
}

// prng is a small deterministic generator.
type prng struct{ s uint64 }

func (p *prng) next() uint64 {
	p.s ^= p.s << 13
	p.s ^= p.s >> 7
	p.s ^= p.s << 17
	return p.s
}

func (p *prng) intn(n int64) int64 { return int64(p.next() % uint64(n)) }

var (
	returnFlags = []string{"A", "N", "R"}
	lineStatus  = []string{"O", "F"}
	shipModes   = []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}
	segments    = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	priorities  = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	brands      = []string{"Brand#11", "Brand#12", "Brand#21", "Brand#23", "Brand#34", "Brand#45"}
	ptypes      = []string{"ECONOMY ANODIZED STEEL", "STANDARD POLISHED BRASS", "PROMO BURNISHED COPPER", "MEDIUM PLATED TIN", "SMALL BRUSHED NICKEL"}
	nations     = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	regions     = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
)

// table is one table of the schema: its columns, and how Load fills row i.
type table struct {
	name string
	cols []rt.ColSpec
	row  func(g *gen, i int64)
}

func col(name string, t qir.Type) rt.ColSpec { return rt.ColSpec{Name: name, Type: t} }

// tables is the schema, in the order Load creates and fills the tables. The
// order fixes every column's address, which the generated code bakes in.
var tables = []table{
	{"region", []rt.ColSpec{col("r_regionkey", qir.I32), col("r_name", qir.Str)}, func(g *gen, i int64) {
		g.int("r_regionkey", i, i)
		g.str("r_name", i, regions[i])
	}},
	{"nation", []rt.ColSpec{col("n_nationkey", qir.I32), col("n_name", qir.Str), col("n_regionkey", qir.I32)}, func(g *gen, i int64) {
		g.int("n_nationkey", i, i)
		g.str("n_name", i, nations[i])
		g.int("n_regionkey", i, i%5)
	}},
	{"supplier", []rt.ColSpec{col("s_suppkey", qir.I64), col("s_nationkey", qir.I32), col("s_name", qir.Str)}, func(g *gen, i int64) {
		g.int("s_suppkey", i, i)
		g.int("s_nationkey", i, g.intn(25))
		g.str("s_name", i, fmt.Sprintf("Supplier#%09d", i))
	}},
	{"part", []rt.ColSpec{col("p_partkey", qir.I64), col("p_name", qir.Str), col("p_brand", qir.Str),
		col("p_type", qir.Str), col("p_size", qir.I32)}, func(g *gen, i int64) {
		g.int("p_partkey", i, i)
		g.str("p_name", i, fmt.Sprintf("part %s %d", ptypes[g.intn(5)], i))
		g.str("p_brand", i, brands[g.intn(int64(len(brands)))])
		g.str("p_type", i, ptypes[g.intn(int64(len(ptypes)))])
		g.int("p_size", i, 1+g.intn(50))
	}},
	{"customer", []rt.ColSpec{col("c_custkey", qir.I64), col("c_name", qir.Str), col("c_nationkey", qir.I32),
		col("c_mktsegment", qir.Str), col("c_acctbal", qir.I128)}, func(g *gen, i int64) {
		g.int("c_custkey", i, i)
		g.str("c_name", i, fmt.Sprintf("Customer#%09d", i))
		g.int("c_nationkey", i, g.intn(25))
		g.str("c_mktsegment", i, segments[g.intn(5)])
		g.dec("c_acctbal", i, g.intn(1000000)-99999)
	}},
	{"orders", []rt.ColSpec{col("o_orderkey", qir.I64), col("o_custkey", qir.I64), col("o_orderstatus", qir.Str),
		col("o_totalprice", qir.I128), col("o_orderdate", qir.I32), col("o_orderpriority", qir.Str)}, func(g *gen, i int64) {
		g.int("o_orderkey", i, i)
		g.int("o_custkey", i, g.intn(g.rows["customer"]))
		g.str("o_orderstatus", i, lineStatus[g.intn(2)])
		g.dec("o_totalprice", i, 1000+g.intn(50000000))
		g.int("o_orderdate", i, 8000+g.intn(2500))
		g.str("o_orderpriority", i, priorities[g.intn(5)])
	}},
	{"lineitem", []rt.ColSpec{col("l_orderkey", qir.I64), col("l_partkey", qir.I64), col("l_suppkey", qir.I64),
		col("l_quantity", qir.I128), col("l_extendedprice", qir.I128), col("l_discount", qir.I128), col("l_tax", qir.I128),
		col("l_returnflag", qir.Str), col("l_linestatus", qir.Str), col("l_shipdate", qir.I32),
		col("l_commitdate", qir.I32), col("l_receiptdate", qir.I32), col("l_shipmode", qir.Str)}, func(g *gen, i int64) {
		g.int("l_orderkey", i, g.intn(g.rows["orders"]))
		g.int("l_partkey", i, g.intn(g.rows["part"]))
		g.int("l_suppkey", i, g.intn(g.rows["supplier"]))
		g.dec("l_quantity", i, 1+g.intn(50))
		g.dec("l_extendedprice", i, 100+g.intn(1000000))
		g.dec("l_discount", i, g.intn(11))
		g.dec("l_tax", i, g.intn(9))
		g.str("l_returnflag", i, returnFlags[g.intn(3)])
		g.str("l_linestatus", i, lineStatus[g.intn(2)])
		ship := 8000 + g.intn(2500)
		g.int("l_shipdate", i, ship)
		g.int("l_commitdate", i, ship+g.intn(30))
		g.int("l_receiptdate", i, ship+g.intn(60))
		g.str("l_shipmode", i, shipModes[g.intn(7)])
	}},
}

// gen is the state Load threads through the tables' row functions: the
// table being filled, every table's row count and the random draws.
type gen struct {
	prng
	cat  *rt.Catalog
	t    *rt.Table
	rows map[string]int64
}

func (g *gen) int(c string, i, v int64)        { g.cat.SetInt(g.t.MustCol(c), i, v) }
func (g *gen) dec(c string, i, v int64)        { g.cat.SetI128(g.t.MustCol(c), i, rt.I128FromInt64(v)) }
func (g *gen) str(c string, i int64, v string) { g.cat.SetStr(g.t.MustCol(c), i, v) }

// Load generates all tables at the given scale factor into the catalog.
func Load(cat *rt.Catalog, sf float64) (err error) {
	defer vm.CatchOOM(&err) // tables larger than the machine's memory
	g := &gen{prng: prng{s: 0x9E3779B97F4A7C15}, cat: cat, rows: rowsAt(sf)}
	for _, t := range tables {
		g.t = cat.CreateTable(t.name, g.rows[t.name], t.cols...)
		for i := int64(0); i < g.rows[t.name]; i++ {
			t.row(g, i)
		}
	}
	return nil
}

// schema is the catalog the queries are parsed against: every table declared
// at its sf-1 row count, without storage. The join planner orients each join
// by row counts, so the plans must not depend on the scale factor loaded: at
// sf 0.01 the 8-row supplier floor is smaller than the 25 nations and q7's
// join with nation would build the other way.
var schema = sync.OnceValue(func() *rt.Catalog {
	cat, rows := rt.NewCatalog(nil), rowsAt(1)
	for _, t := range tables {
		cat.DeclareTable(t.name, rows[t.name], t.cols...)
	}
	return cat
})
