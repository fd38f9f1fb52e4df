package tpch

import (
	"fmt"

	"qcc/internal/plan"
)

// Parameterized query families for the plan-cache experiment. Each family
// fixes one plan shape and varies only literal constants (predicate
// thresholds, date windows, market segments) — the situation the
// constant-hoisted plan cache targets: under hoisting every variant of a
// family compiles to the same parameterized body, so a cache warmed by one
// variant serves all of them and only the bound constant pool changes
// between executions. Variant 0 is always the canonical paper query.

// ParamQuery is one parameterized family: Build(v) returns the family's
// plan shape instantiated with variant v's constants.
type ParamQuery struct {
	Name  string
	Build func(variant int) plan.Node
}

// ParamQueries returns the constant-variant families. The chosen parameters
// all sit in selection predicates, away from anything structural: variants
// differ in selectivity, never in plan shape, schema, or aggregate list.
func ParamQueries() []ParamQuery {
	segments := []string{"BUILDING", "AUTOMOBILE", "MACHINERY", "FURNITURE", "HOUSEHOLD"}
	return []ParamQuery{
		{"q1", func(v int) plan.Node {
			return parse(q1(10400 - int64(v)*15))
		}},
		{"q3", func(v int) plan.Node {
			return parse(q3(segments[v%len(segments)], 9200-int64(v)*10))
		}},
		{"q6", func(v int) plan.Node {
			lo := 9000 + int64(v)*20
			return parse(q6(lo, lo+365, 3+int64(v%3), 6+int64(v%3), 24-int64(v%6)))
		}},
		{"q15", func(v int) plan.Node {
			lo := 9800 - int64(v)*12
			return parse(q15(lo, lo+90))
		}},
	}
}

// q1 is q1 with a parameterized shipdate cutoff.
func q1(shipCut int64) string {
	return fmt.Sprintf(`SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), SUM(%s),
		AVG(l_quantity), AVG(l_extendedprice), COUNT(*)
	FROM lineitem WHERE l_shipdate <= %d
	GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, revenue, shipCut)
}

// q3 is q3 with a parameterized market segment and order-date cutoff (the
// cutoff bounds both the order date and the ship date, as in the canonical
// query).
func q3(segment string, dateCut int64) string {
	return fmt.Sprintf(`SELECT o_orderkey, o_orderdate, SUM(%s) AS revenue
	FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey
	WHERE c_mktsegment = '%s' AND o_orderdate < %d AND l_shipdate > %[3]d
	GROUP BY o_orderkey, o_orderdate ORDER BY CAST(revenue AS BIGINT) DESC LIMIT 10`, revenue, segment, dateCut)
}

// q6 is q6 with a parameterized shipdate window [shipLo, shipHi), discount
// band [discLo, discHi], and quantity cutoff.
func q6(shipLo, shipHi, discLo, discHi, qty int64) string {
	return fmt.Sprintf(`SELECT SUM(l_extendedprice * l_discount), COUNT(*)
	FROM lineitem
	WHERE (l_shipdate >= %d AND l_shipdate < %d) AND (l_discount BETWEEN %d AND %d AND l_quantity < %d)`,
		shipLo, shipHi, discLo, discHi, qty)
}

// q15 is q15 with a parameterized shipdate window [shipLo, shipHi).
func q15(shipLo, shipHi int64) string {
	return fmt.Sprintf(`SELECT l_suppkey, SUM(%s) AS revenue
	FROM lineitem WHERE l_shipdate >= %d AND l_shipdate < %d
	GROUP BY l_suppkey ORDER BY CAST(revenue AS BIGINT) DESC LIMIT 1`, revenue, shipLo, shipHi)
}
