// Package tpch provides a laptop-scale synthetic analog of the TPC-H
// benchmark: the schema, a deterministic data generator parameterized by
// scale factor, and 22 query plans whose operator shapes follow the official
// queries (joins, aggregations, selective predicates, sorts). Absolute data
// volumes are far below the official 10/100 GiB scale factors, but relative
// table proportions and query structure are preserved, which is what the
// compile-time/run-time trade-off experiments depend on.
package tpch

import (
	"fmt"

	"qcc/internal/plan"
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

// Load generates all tables at the given scale factor into the catalog.
func Load(cat *rt.Catalog, sf float64) (err error) {
	defer vm.CatchOOM(&err) // tables larger than the machine's memory
	rows := rowsAt(sf)
	rng := &prng{s: 0x9E3779B97F4A7C15}

	nLine := rows["lineitem"]
	nOrd := rows["orders"]
	nCust := rows["customer"]
	nPart := rows["part"]
	nSupp := rows["supplier"]

	region := cat.CreateTable("region", rows["region"],
		rt.ColSpec{Name: "r_regionkey", Type: qir.I32},
		rt.ColSpec{Name: "r_name", Type: qir.Str})
	for i := int64(0); i < rows["region"]; i++ {
		cat.SetInt(region.MustCol("r_regionkey"), i, i)
		cat.SetStr(region.MustCol("r_name"), i, regions[i])
	}

	nation := cat.CreateTable("nation", rows["nation"],
		rt.ColSpec{Name: "n_nationkey", Type: qir.I32},
		rt.ColSpec{Name: "n_name", Type: qir.Str},
		rt.ColSpec{Name: "n_regionkey", Type: qir.I32})
	for i := int64(0); i < rows["nation"]; i++ {
		cat.SetInt(nation.MustCol("n_nationkey"), i, i)
		cat.SetStr(nation.MustCol("n_name"), i, nations[i])
		cat.SetInt(nation.MustCol("n_regionkey"), i, i%5)
	}

	supplier := cat.CreateTable("supplier", nSupp,
		rt.ColSpec{Name: "s_suppkey", Type: qir.I64},
		rt.ColSpec{Name: "s_nationkey", Type: qir.I32},
		rt.ColSpec{Name: "s_name", Type: qir.Str})
	for i := int64(0); i < nSupp; i++ {
		cat.SetInt(supplier.MustCol("s_suppkey"), i, i)
		cat.SetInt(supplier.MustCol("s_nationkey"), i, rng.intn(25))
		cat.SetStr(supplier.MustCol("s_name"), i, fmt.Sprintf("Supplier#%09d", i))
	}

	part := cat.CreateTable("part", nPart,
		rt.ColSpec{Name: "p_partkey", Type: qir.I64},
		rt.ColSpec{Name: "p_name", Type: qir.Str},
		rt.ColSpec{Name: "p_brand", Type: qir.Str},
		rt.ColSpec{Name: "p_type", Type: qir.Str},
		rt.ColSpec{Name: "p_size", Type: qir.I32})
	for i := int64(0); i < nPart; i++ {
		cat.SetInt(part.MustCol("p_partkey"), i, i)
		cat.SetStr(part.MustCol("p_name"), i, fmt.Sprintf("part %s %d", ptypes[rng.intn(5)], i))
		cat.SetStr(part.MustCol("p_brand"), i, brands[rng.intn(int64(len(brands)))])
		cat.SetStr(part.MustCol("p_type"), i, ptypes[rng.intn(int64(len(ptypes)))])
		cat.SetInt(part.MustCol("p_size"), i, 1+rng.intn(50))
	}

	customer := cat.CreateTable("customer", nCust,
		rt.ColSpec{Name: "c_custkey", Type: qir.I64},
		rt.ColSpec{Name: "c_name", Type: qir.Str},
		rt.ColSpec{Name: "c_nationkey", Type: qir.I32},
		rt.ColSpec{Name: "c_mktsegment", Type: qir.Str},
		rt.ColSpec{Name: "c_acctbal", Type: qir.I128})
	for i := int64(0); i < nCust; i++ {
		cat.SetInt(customer.MustCol("c_custkey"), i, i)
		cat.SetStr(customer.MustCol("c_name"), i, fmt.Sprintf("Customer#%09d", i))
		cat.SetInt(customer.MustCol("c_nationkey"), i, rng.intn(25))
		cat.SetStr(customer.MustCol("c_mktsegment"), i, segments[rng.intn(5)])
		cat.SetI128(customer.MustCol("c_acctbal"), i, rt.I128FromInt64(rng.intn(1000000)-99999))
	}

	orders := cat.CreateTable("orders", nOrd,
		rt.ColSpec{Name: "o_orderkey", Type: qir.I64},
		rt.ColSpec{Name: "o_custkey", Type: qir.I64},
		rt.ColSpec{Name: "o_orderstatus", Type: qir.Str},
		rt.ColSpec{Name: "o_totalprice", Type: qir.I128},
		rt.ColSpec{Name: "o_orderdate", Type: qir.I32},
		rt.ColSpec{Name: "o_orderpriority", Type: qir.Str})
	for i := int64(0); i < nOrd; i++ {
		cat.SetInt(orders.MustCol("o_orderkey"), i, i)
		cat.SetInt(orders.MustCol("o_custkey"), i, rng.intn(nCust))
		cat.SetStr(orders.MustCol("o_orderstatus"), i, lineStatus[rng.intn(2)])
		cat.SetI128(orders.MustCol("o_totalprice"), i, rt.I128FromInt64(1000+rng.intn(50000000)))
		cat.SetInt(orders.MustCol("o_orderdate"), i, 8000+rng.intn(2500))
		cat.SetStr(orders.MustCol("o_orderpriority"), i, priorities[rng.intn(5)])
	}

	lineitem := cat.CreateTable("lineitem", nLine,
		rt.ColSpec{Name: "l_orderkey", Type: qir.I64},
		rt.ColSpec{Name: "l_partkey", Type: qir.I64},
		rt.ColSpec{Name: "l_suppkey", Type: qir.I64},
		rt.ColSpec{Name: "l_quantity", Type: qir.I128},
		rt.ColSpec{Name: "l_extendedprice", Type: qir.I128},
		rt.ColSpec{Name: "l_discount", Type: qir.I128},
		rt.ColSpec{Name: "l_tax", Type: qir.I128},
		rt.ColSpec{Name: "l_returnflag", Type: qir.Str},
		rt.ColSpec{Name: "l_linestatus", Type: qir.Str},
		rt.ColSpec{Name: "l_shipdate", Type: qir.I32},
		rt.ColSpec{Name: "l_commitdate", Type: qir.I32},
		rt.ColSpec{Name: "l_receiptdate", Type: qir.I32},
		rt.ColSpec{Name: "l_shipmode", Type: qir.Str})
	for i := int64(0); i < nLine; i++ {
		cat.SetInt(lineitem.MustCol("l_orderkey"), i, rng.intn(nOrd))
		cat.SetInt(lineitem.MustCol("l_partkey"), i, rng.intn(nPart))
		cat.SetInt(lineitem.MustCol("l_suppkey"), i, rng.intn(nSupp))
		cat.SetI128(lineitem.MustCol("l_quantity"), i, rt.I128FromInt64(1+rng.intn(50)))
		cat.SetI128(lineitem.MustCol("l_extendedprice"), i, rt.I128FromInt64(100+rng.intn(1000000)))
		cat.SetI128(lineitem.MustCol("l_discount"), i, rt.I128FromInt64(rng.intn(11)))
		cat.SetI128(lineitem.MustCol("l_tax"), i, rt.I128FromInt64(rng.intn(9)))
		cat.SetStr(lineitem.MustCol("l_returnflag"), i, returnFlags[rng.intn(3)])
		cat.SetStr(lineitem.MustCol("l_linestatus"), i, lineStatus[rng.intn(2)])
		ship := 8000 + rng.intn(2500)
		cat.SetInt(lineitem.MustCol("l_shipdate"), i, ship)
		cat.SetInt(lineitem.MustCol("l_commitdate"), i, ship+rng.intn(30))
		cat.SetInt(lineitem.MustCol("l_receiptdate"), i, ship+rng.intn(60))
		cat.SetStr(lineitem.MustCol("l_shipmode"), i, shipModes[rng.intn(7)])
	}
	return nil
}

// Schemas for plan construction.
func lineitemSchema() []plan.ColInfo {
	return []plan.ColInfo{
		{Name: "l_orderkey", Type: qir.I64}, {Name: "l_partkey", Type: qir.I64},
		{Name: "l_suppkey", Type: qir.I64}, {Name: "l_quantity", Type: qir.I128},
		{Name: "l_extendedprice", Type: qir.I128}, {Name: "l_discount", Type: qir.I128},
		{Name: "l_tax", Type: qir.I128}, {Name: "l_returnflag", Type: qir.Str},
		{Name: "l_linestatus", Type: qir.Str}, {Name: "l_shipdate", Type: qir.I32},
		{Name: "l_commitdate", Type: qir.I32}, {Name: "l_receiptdate", Type: qir.I32},
		{Name: "l_shipmode", Type: qir.Str},
	}
}

func ordersSchema() []plan.ColInfo {
	return []plan.ColInfo{
		{Name: "o_orderkey", Type: qir.I64}, {Name: "o_custkey", Type: qir.I64},
		{Name: "o_orderstatus", Type: qir.Str}, {Name: "o_totalprice", Type: qir.I128},
		{Name: "o_orderdate", Type: qir.I32}, {Name: "o_orderpriority", Type: qir.Str},
	}
}

func customerSchema() []plan.ColInfo {
	return []plan.ColInfo{
		{Name: "c_custkey", Type: qir.I64}, {Name: "c_name", Type: qir.Str},
		{Name: "c_nationkey", Type: qir.I32}, {Name: "c_mktsegment", Type: qir.Str},
		{Name: "c_acctbal", Type: qir.I128},
	}
}

func partSchema() []plan.ColInfo {
	return []plan.ColInfo{
		{Name: "p_partkey", Type: qir.I64}, {Name: "p_name", Type: qir.Str},
		{Name: "p_brand", Type: qir.Str}, {Name: "p_type", Type: qir.Str},
		{Name: "p_size", Type: qir.I32},
	}
}

func supplierSchema() []plan.ColInfo {
	return []plan.ColInfo{
		{Name: "s_suppkey", Type: qir.I64}, {Name: "s_nationkey", Type: qir.I32},
		{Name: "s_name", Type: qir.Str},
	}
}

func nationSchema() []plan.ColInfo {
	return []plan.ColInfo{
		{Name: "n_nationkey", Type: qir.I32}, {Name: "n_name", Type: qir.Str},
		{Name: "n_regionkey", Type: qir.I32},
	}
}
