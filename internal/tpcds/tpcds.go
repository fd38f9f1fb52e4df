// Package tpcds provides the synthetic TPC-DS analog used for the
// compile-time experiments: a star-schema subset (store_sales fact table
// with item, customer, date_dim and store dimensions), a deterministic data
// generator, and a 103-query suite built from parametric templates so the
// workload matches the paper's "all TPC-DS queries" compilations in breadth
// (many distinct plans with varying join depth, predicate mix, decimal
// arithmetic, string matching, and sort shapes).
package tpcds

import (
	"fmt"

	"qcc/internal/plan"
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

// Load generates all tables at the given scale factor.
func Load(cat *rt.Catalog, sf float64) (err error) {
	defer vm.CatchOOM(&err) // tables larger than the machine's memory
	rows := Rows(sf)
	rng := &prng{s: 0xA076_1D64_78BD_642F}

	nItem := rows["item"]
	nCust := rows["customer"]
	nDate := rows["date_dim"]
	nStore := rows["store"]

	item := cat.CreateTable("item", nItem,
		rt.ColSpec{Name: "i_item_sk", Type: qir.I64},
		rt.ColSpec{Name: "i_brand", Type: qir.Str},
		rt.ColSpec{Name: "i_category", Type: qir.Str},
		rt.ColSpec{Name: "i_class", Type: qir.Str},
		rt.ColSpec{Name: "i_current_price", Type: qir.I128})
	for i := int64(0); i < nItem; i++ {
		cat.SetInt(item.MustCol("i_item_sk"), i, i)
		cat.SetStr(item.MustCol("i_brand"), i, fmt.Sprintf("Brand#%d%d", 1+rng.intn(9), 1+rng.intn(9)))
		cat.SetStr(item.MustCol("i_category"), i, categories[rng.intn(10)])
		cat.SetStr(item.MustCol("i_class"), i, classes[rng.intn(10)])
		cat.SetI128(item.MustCol("i_current_price"), i, rt.I128FromInt64(99+rng.intn(9900)))
	}

	customer := cat.CreateTable("customer", nCust,
		rt.ColSpec{Name: "c_customer_sk", Type: qir.I64},
		rt.ColSpec{Name: "c_first_name", Type: qir.Str},
		rt.ColSpec{Name: "c_last_name", Type: qir.Str},
		rt.ColSpec{Name: "c_birth_year", Type: qir.I32})
	for i := int64(0); i < nCust; i++ {
		cat.SetInt(customer.MustCol("c_customer_sk"), i, i)
		cat.SetStr(customer.MustCol("c_first_name"), i, firstNames[rng.intn(10)])
		cat.SetStr(customer.MustCol("c_last_name"), i, lastNames[rng.intn(10)])
		cat.SetInt(customer.MustCol("c_birth_year"), i, 1930+rng.intn(70))
	}

	dateDim := cat.CreateTable("date_dim", nDate,
		rt.ColSpec{Name: "d_date_sk", Type: qir.I32},
		rt.ColSpec{Name: "d_year", Type: qir.I32},
		rt.ColSpec{Name: "d_moy", Type: qir.I32},
		rt.ColSpec{Name: "d_dow", Type: qir.I32})
	for i := int64(0); i < nDate; i++ {
		cat.SetInt(dateDim.MustCol("d_date_sk"), i, i)
		cat.SetInt(dateDim.MustCol("d_year"), i, 1998+i/365)
		cat.SetInt(dateDim.MustCol("d_moy"), i, 1+(i/30)%12)
		cat.SetInt(dateDim.MustCol("d_dow"), i, i%7)
	}

	store := cat.CreateTable("store", nStore,
		rt.ColSpec{Name: "s_store_sk", Type: qir.I32},
		rt.ColSpec{Name: "s_store_name", Type: qir.Str},
		rt.ColSpec{Name: "s_state", Type: qir.Str})
	for i := int64(0); i < nStore; i++ {
		cat.SetInt(store.MustCol("s_store_sk"), i, i)
		cat.SetStr(store.MustCol("s_store_name"), i, fmt.Sprintf("Store %c", 'A'+byte(i%26)))
		cat.SetStr(store.MustCol("s_state"), i, states[rng.intn(10)])
	}

	ss := cat.CreateTable("store_sales", rows["store_sales"],
		rt.ColSpec{Name: "ss_sold_date_sk", Type: qir.I32},
		rt.ColSpec{Name: "ss_item_sk", Type: qir.I64},
		rt.ColSpec{Name: "ss_customer_sk", Type: qir.I64},
		rt.ColSpec{Name: "ss_store_sk", Type: qir.I32},
		rt.ColSpec{Name: "ss_quantity", Type: qir.I32},
		rt.ColSpec{Name: "ss_sales_price", Type: qir.I128},
		rt.ColSpec{Name: "ss_ext_sales_price", Type: qir.I128},
		rt.ColSpec{Name: "ss_net_profit", Type: qir.I128})
	for i := int64(0); i < rows["store_sales"]; i++ {
		cat.SetInt(ss.MustCol("ss_sold_date_sk"), i, rng.intn(nDate))
		cat.SetInt(ss.MustCol("ss_item_sk"), i, rng.intn(nItem))
		cat.SetInt(ss.MustCol("ss_customer_sk"), i, rng.intn(nCust))
		cat.SetInt(ss.MustCol("ss_store_sk"), i, rng.intn(nStore))
		q := 1 + rng.intn(100)
		price := 50 + rng.intn(20000)
		cat.SetInt(ss.MustCol("ss_quantity"), i, q)
		cat.SetI128(ss.MustCol("ss_sales_price"), i, rt.I128FromInt64(price))
		cat.SetI128(ss.MustCol("ss_ext_sales_price"), i, rt.I128FromInt64(price*q))
		cat.SetI128(ss.MustCol("ss_net_profit"), i, rt.I128FromInt64(price*q/10-rng.intn(5000)))
	}
	return nil
}

// Schemas.
func ssSchema() []plan.ColInfo {
	return []plan.ColInfo{
		{Name: "ss_sold_date_sk", Type: qir.I32}, {Name: "ss_item_sk", Type: qir.I64},
		{Name: "ss_customer_sk", Type: qir.I64}, {Name: "ss_store_sk", Type: qir.I32},
		{Name: "ss_quantity", Type: qir.I32}, {Name: "ss_sales_price", Type: qir.I128},
		{Name: "ss_ext_sales_price", Type: qir.I128}, {Name: "ss_net_profit", Type: qir.I128},
	}
}

func itemSchema() []plan.ColInfo {
	return []plan.ColInfo{
		{Name: "i_item_sk", Type: qir.I64}, {Name: "i_brand", Type: qir.Str},
		{Name: "i_category", Type: qir.Str}, {Name: "i_class", Type: qir.Str},
		{Name: "i_current_price", Type: qir.I128},
	}
}

func customerSchema() []plan.ColInfo {
	return []plan.ColInfo{
		{Name: "c_customer_sk", Type: qir.I64}, {Name: "c_first_name", Type: qir.Str},
		{Name: "c_last_name", Type: qir.Str}, {Name: "c_birth_year", Type: qir.I32},
	}
}

func dateSchema() []plan.ColInfo {
	return []plan.ColInfo{
		{Name: "d_date_sk", Type: qir.I32}, {Name: "d_year", Type: qir.I32},
		{Name: "d_moy", Type: qir.I32}, {Name: "d_dow", Type: qir.I32},
	}
}

func storeSchema() []plan.ColInfo {
	return []plan.ColInfo{
		{Name: "s_store_sk", Type: qir.I32}, {Name: "s_store_name", Type: qir.Str},
		{Name: "s_state", Type: qir.Str},
	}
}
