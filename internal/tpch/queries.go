package tpch

import (
	"fmt"

	"qcc/internal/plan"
	"qcc/internal/sql"
)

// Query is one benchmark query.
type Query struct {
	Name  string
	Build func() plan.Node
}

// Queries returns the 22 queries. Each Build parses the query's SQL against
// the schema catalog.
func Queries() []Query {
	qs := make([]Query, len(queries))
	for i, text := range queries {
		qs[i] = Query{fmt.Sprintf("q%d", i+1), func() plan.Node { return parse(text) }}
	}
	return qs
}

// parse plans one statement of the suite, which is fixed: a statement that
// does not parse is a bug in this package.
func parse(text string) plan.Node {
	n, err := sql.Parse(text, schema())
	if err != nil {
		panic(fmt.Sprintf("tpch: %v\n%s", err, text))
	}
	return n
}

// revenue is extendedprice * (100 - discount).
const revenue = "l_extendedprice * (100 - l_discount)"

var queries = [...]string{
	// q1: pricing summary report — heavy decimal aggregation.
	q1(10400),
	// q2: minimum-cost supplier (simplified): part x lineitem, min price per brand.
	`SELECT p_brand, MIN(l_extendedprice), COUNT(*)
	FROM part JOIN lineitem ON p_partkey = l_partkey
	GROUP BY p_brand ORDER BY p_brand`,
	// q3: shipping priority — 3-way join, revenue sort, limit 10.
	q3("BUILDING", 9200),
	// q4: order priority checking (simplified join form).
	`SELECT o_orderpriority, COUNT(*)
	FROM orders JOIN lineitem ON o_orderkey = l_orderkey
	WHERE o_orderdate >= 9000 AND o_orderdate < 9090 AND l_commitdate < l_receiptdate
	GROUP BY o_orderpriority ORDER BY o_orderpriority`,
	// q5: local supplier volume — 4-way join grouped by nation.
	`SELECT n_name, SUM(` + revenue + `)
	FROM nation JOIN customer ON n_nationkey = c_nationkey JOIN orders ON c_custkey = o_custkey
		JOIN lineitem ON o_orderkey = l_orderkey
	GROUP BY n_name ORDER BY n_name`,
	// q6: forecasting revenue change — highly selective scan.
	q6(9000, 9365, 4, 6, 24),
	// q7: volume shipping (simplified 3-way join by nation).
	`SELECT n_name, SUM(` + revenue + `), COUNT(*)
	FROM nation JOIN supplier ON n_nationkey = s_nationkey JOIN lineitem ON s_suppkey = l_suppkey
	GROUP BY n_name ORDER BY n_name`,
	// q8: market share (simplified): part type filter, share via case-when.
	`SELECT SUM(CASE WHEN p_brand = 'Brand#11' THEN ` + revenue + ` ELSE 0 END), SUM(` + revenue + `)
	FROM part JOIN lineitem ON p_partkey = l_partkey
	WHERE p_type = 'ECONOMY ANODIZED STEEL'`,
	// q9: product type profit (simplified 3-way join, LIKE filter).
	`SELECT s_nationkey, SUM(` + revenue + `)
	FROM part JOIN lineitem ON p_partkey = l_partkey JOIN supplier ON l_suppkey = s_suppkey
	WHERE p_name LIKE '%STEEL%'
	GROUP BY s_nationkey ORDER BY CAST(s_nationkey AS BIGINT)`,
	// q10: returned item reporting — join + top 20 by revenue.
	`SELECT c_custkey, c_name, SUM(` + revenue + `) AS revenue
	FROM orders JOIN lineitem ON o_orderkey = l_orderkey JOIN customer ON o_custkey = c_custkey
	WHERE l_returnflag = 'R'
	GROUP BY c_custkey, c_name ORDER BY CAST(revenue AS BIGINT) DESC LIMIT 20`,
	// q11: important stock (simplified supplier aggregation).
	`SELECT s_suppkey, SUM(l_extendedprice * l_quantity) AS value
	FROM supplier JOIN lineitem ON s_suppkey = l_suppkey
	GROUP BY s_suppkey HAVING value > 500000 ORDER BY s_suppkey`,
	// q12: shipping mode and order priority, with case-when counting.
	`SELECT l_shipmode,
		SUM(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END),
		SUM(CASE WHEN NOT (o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH') THEN 1 ELSE 0 END)
	FROM orders JOIN lineitem ON o_orderkey = l_orderkey
	WHERE l_shipmode = 'MAIL' OR l_shipmode = 'SHIP'
	GROUP BY l_shipmode ORDER BY l_shipmode`,
	// q13: customer order counts, then distribution of counts.
	`SELECT order_count, COUNT(*) AS custdist
	FROM (SELECT c_custkey, COUNT(*) AS order_count
		FROM customer JOIN orders ON c_custkey = o_custkey GROUP BY c_custkey) counts
	GROUP BY order_count ORDER BY custdist DESC, order_count DESC`,
	// q14: promotion effect — LIKE on part type with ratio components.
	`SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' THEN ` + revenue + ` ELSE 0 END), SUM(` + revenue + `)
	FROM part JOIN lineitem ON p_partkey = l_partkey`,
	// q15: top supplier — per-supplier revenue, descending, limit 1.
	q15(9800, 9890),
	// q16: parts/supplier relationship counts.
	`SELECT p_brand, p_size, COUNT(*) AS supplier_cnt
	FROM part JOIN lineitem ON p_partkey = l_partkey
	WHERE NOT p_brand = 'Brand#45'
	GROUP BY p_brand, p_size ORDER BY supplier_cnt DESC, p_brand`,
	// q17: small-quantity-order revenue for one brand.
	`SELECT SUM(l_extendedprice), COUNT(*)
	FROM part JOIN lineitem ON p_partkey = l_partkey
	WHERE p_brand = 'Brand#23' AND l_quantity < 10`,
	// q18: large-volume customers — grouped sum with HAVING and top-k.
	`SELECT o_orderkey, o_custkey, SUM(l_quantity) AS quantity
	FROM orders JOIN lineitem ON o_orderkey = l_orderkey
	GROUP BY o_orderkey, o_custkey HAVING quantity > 150
	ORDER BY CAST(quantity AS BIGINT) DESC LIMIT 100`,
	// q19: discounted revenue — disjunctive brand/quantity predicates.
	`SELECT SUM(` + revenue + `), COUNT(*)
	FROM part JOIN lineitem ON p_partkey = l_partkey
	WHERE (p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 11)
		OR ((p_brand = 'Brand#23' AND l_quantity BETWEEN 10 AND 20)
			OR (p_brand = 'Brand#34' AND l_quantity BETWEEN 20 AND 30))`,
	// q20: potential part promotion (simplified): supplier quantities.
	`SELECT s_name, SUM(l_quantity)
	FROM supplier JOIN lineitem ON s_suppkey = l_suppkey
	WHERE l_shipdate >= 9400 AND l_shipdate < 9750
	GROUP BY s_name ORDER BY s_name`,
	// q21: suppliers who kept orders waiting (simplified).
	`SELECT s_name, COUNT(*) AS numwait
	FROM supplier JOIN lineitem ON s_suppkey = l_suppkey
	WHERE l_receiptdate > l_commitdate
	GROUP BY s_name ORDER BY numwait DESC, s_name LIMIT 25`,
	// q22: global sales opportunity — customers without recent orders
	// (simplified to an account-balance report).
	`SELECT c_nationkey, COUNT(*), SUM(c_acctbal)
	FROM customer WHERE c_acctbal > 400000
	GROUP BY c_nationkey ORDER BY CAST(c_nationkey AS BIGINT)`,
}
