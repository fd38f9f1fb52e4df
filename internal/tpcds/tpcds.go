// Package tpcds provides the synthetic TPC-DS analog used for the
// compile-time experiments: a star-schema subset (store_sales fact table
// with item, customer, date_dim and store dimensions), a deterministic data
// generator, and a 103-query suite built from eight parametric SQL
// templates so the workload matches the paper's "all TPC-DS queries"
// compilations in breadth (many distinct plans with varying join depth,
// predicate mix, decimal arithmetic, string matching, and sort shapes).
package tpcds

import (
	"fmt"
	"sync"

	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
)

var (
	categories = []string{"Books", "Electronics", "Home", "Jewelry", "Men", "Music", "Shoes", "Sports", "Toys", "Women"}
	classes    = []string{"accent", "bedding", "birdal", "classical", "custom", "diamonds", "dresses", "estate", "fragrances", "pants"}
	states     = []string{"AL", "CA", "GA", "KS", "MI", "NC", "OH", "TN", "TX", "WA"}
	firstNames = []string{"James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael", "Linda", "David", "Elizabeth"}
	lastNames  = []string{"Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller", "Davis", "Rodriguez", "Martinez"}
)

type prng struct{ s uint64 }

func (p *prng) next() uint64 {
	p.s ^= p.s << 13
	p.s ^= p.s >> 7
	p.s ^= p.s << 17
	return p.s
}

func (p *prng) intn(n int64) int64 { return int64(p.next() % uint64(n)) }

// Rows returns per-table row counts at a scale factor (SF=1 ~ 120k fact
// rows; proportions follow the official schema).
func Rows(sf float64) map[string]int64 {
	n := func(base float64) int64 {
		v := int64(base * sf)
		if v < 8 {
			v = 8
		}
		return v
	}
	return map[string]int64{
		"store_sales": n(120000),
		"item":        n(3000),
		"customer":    n(5000),
		"date_dim":    2555, // seven years of days, SF-independent
		"store":       n(20),
	}
}

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
	{"item", []rt.ColSpec{col("i_item_sk", qir.I64), col("i_brand", qir.Str), col("i_category", qir.Str),
		col("i_class", qir.Str), col("i_current_price", qir.I128)}, func(g *gen, i int64) {
		g.int("i_item_sk", i, i)
		g.str("i_brand", i, fmt.Sprintf("Brand#%d%d", 1+g.intn(9), 1+g.intn(9)))
		g.str("i_category", i, categories[g.intn(10)])
		g.str("i_class", i, classes[g.intn(10)])
		g.dec("i_current_price", i, 99+g.intn(9900))
	}},
	{"customer", []rt.ColSpec{col("c_customer_sk", qir.I64), col("c_first_name", qir.Str), col("c_last_name", qir.Str),
		col("c_birth_year", qir.I32)}, func(g *gen, i int64) {
		g.int("c_customer_sk", i, i)
		g.str("c_first_name", i, firstNames[g.intn(10)])
		g.str("c_last_name", i, lastNames[g.intn(10)])
		g.int("c_birth_year", i, 1930+g.intn(70))
	}},
	{"date_dim", []rt.ColSpec{col("d_date_sk", qir.I32), col("d_year", qir.I32), col("d_moy", qir.I32),
		col("d_dow", qir.I32)}, func(g *gen, i int64) {
		g.int("d_date_sk", i, i)
		g.int("d_year", i, 1998+i/365)
		g.int("d_moy", i, 1+(i/30)%12)
		g.int("d_dow", i, i%7)
	}},
	{"store", []rt.ColSpec{col("s_store_sk", qir.I32), col("s_store_name", qir.Str), col("s_state", qir.Str)}, func(g *gen, i int64) {
		g.int("s_store_sk", i, i)
		g.str("s_store_name", i, fmt.Sprintf("Store %c", 'A'+byte(i%26)))
		g.str("s_state", i, states[g.intn(10)])
	}},
	{"store_sales", []rt.ColSpec{col("ss_sold_date_sk", qir.I32), col("ss_item_sk", qir.I64), col("ss_customer_sk", qir.I64),
		col("ss_store_sk", qir.I32), col("ss_quantity", qir.I32), col("ss_sales_price", qir.I128),
		col("ss_ext_sales_price", qir.I128), col("ss_net_profit", qir.I128)}, func(g *gen, i int64) {
		g.int("ss_sold_date_sk", i, g.intn(g.rows["date_dim"]))
		g.int("ss_item_sk", i, g.intn(g.rows["item"]))
		g.int("ss_customer_sk", i, g.intn(g.rows["customer"]))
		g.int("ss_store_sk", i, g.intn(g.rows["store"]))
		q := 1 + g.intn(100)
		price := 50 + g.intn(20000)
		g.int("ss_quantity", i, q)
		g.dec("ss_sales_price", i, price)
		g.dec("ss_ext_sales_price", i, price*q)
		g.dec("ss_net_profit", i, price*q/10-g.intn(5000))
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

// Load generates all tables at the given scale factor.
func Load(cat *rt.Catalog, sf float64) (err error) {
	defer vm.CatchOOM(&err) // tables larger than the machine's memory
	g := &gen{prng: prng{s: 0xA076_1D64_78BD_642F}, cat: cat, rows: Rows(sf)}
	for _, t := range tables {
		g.t = cat.CreateTable(t.name, g.rows[t.name], t.cols...)
		for i := int64(0); i < g.rows[t.name]; i++ {
			t.row(g, i)
		}
	}
	return nil
}

// schema is the catalog the queries are parsed against: every table declared
// at its sf-1 row count, without storage, so that no plan depends on the
// scale factor loaded (the join planner orients each join by row counts).
var schema = sync.OnceValue(func() *rt.Catalog {
	cat, rows := rt.NewCatalog(nil), Rows(1)
	for _, t := range tables {
		cat.DeclareTable(t.name, rows[t.name], t.cols...)
	}
	return cat
})
