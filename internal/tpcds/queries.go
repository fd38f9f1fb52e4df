package tpcds

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

// Queries returns the 103-query suite. Templates are instantiated with
// varying parameters so every query compiles a distinct plan; each Build
// parses the query's SQL against the schema catalog.
func Queries() []Query {
	var qs []Query
	add := func(text string) {
		qs = append(qs, Query{fmt.Sprintf("q%d", len(qs)+1), func() plan.Node { return parse(text) }})
	}

	// Family 1 (15): sales aggregation by category for one year.
	for k := 0; k < 15; k++ {
		add(aggByCategory(1998+k%5, 5*(k%4)))
	}
	// Family 2 (15): brand LIKE filter, grouped revenue.
	for k := 0; k < 15; k++ {
		add(brandRevenue(fmt.Sprintf("Brand#%d%%", 1+k%9), 5+k))
	}
	// Family 3 (15): 3-way join with date dimension and decimal math.
	for k := 0; k < 15; k++ {
		add(monthlyStoreProfit(1+k%12, states[k%10]))
	}
	// Family 4 (12): top-k customers by spending.
	for k := 0; k < 12; k++ {
		add(topCustomers(10+5*k, 1000*(k+1)))
	}
	// Family 5 (12): case-when bucketing by quantity.
	for k := 0; k < 12; k++ {
		add(quantityBuckets(10 + 5*k))
	}
	// Family 6 (12): selective global aggregates with BETWEEN predicates.
	for k := 0; k < 12; k++ {
		add(priceBandTotals(100*k, 100*k+3000))
	}
	// Family 7 (6): same-item cross join counting (heavy probe chains).
	for k := 0; k < 6; k++ {
		add(classAffinity(classes[k]))
	}
	// Family 8 (16): multi-aggregate reports per class or store.
	for k := 0; k < 16; k++ {
		add(multiAggReport(k%2 == 0, 1998+k%6))
	}
	if len(qs) != 103 {
		panic(fmt.Sprintf("tpcds: suite has %d queries, want 103", len(qs)))
	}
	return qs
}

// parse plans one statement of the suite, which is fixed: a statement that
// does not parse is a bug in this package.
func parse(text string) plan.Node {
	n, err := sql.Parse(text, schema())
	if err != nil {
		panic(fmt.Sprintf("tpcds: %v\n%s", err, text))
	}
	return n
}

// aggByCategory: store_sales x date_dim x item, grouped by category. The
// quantity filter applies to the year's sales, after the join with date_dim:
// on a store_sales scan it would test seven years of rows to drop few.
func aggByCategory(year, minQty int) string {
	return fmt.Sprintf(`SELECT i_category, SUM(ss_ext_sales_price), COUNT(*)
	FROM (SELECT * FROM store_sales JOIN date_dim ON d_date_sk = ss_sold_date_sk WHERE d_year = %d) sales
		JOIN item ON ss_item_sk = i_item_sk
	WHERE ss_quantity >= %d
	GROUP BY i_category ORDER BY i_category`, year, minQty)
}

// brandRevenue: LIKE filter on brand, top-N by revenue.
func brandRevenue(pattern string, topN int) string {
	return fmt.Sprintf(`SELECT i_brand, SUM(ss_ext_sales_price) AS revenue
	FROM item JOIN store_sales ON i_item_sk = ss_item_sk
	WHERE i_brand LIKE '%s'
	GROUP BY i_brand ORDER BY CAST(revenue AS BIGINT) DESC LIMIT %d`, pattern, topN)
}

// monthlyStoreProfit: 3-way join, profit-margin decimal arithmetic.
func monthlyStoreProfit(moy int, state string) string {
	return fmt.Sprintf(`SELECT s_store_name, SUM(ss_net_profit * 100), SUM(ss_ext_sales_price), COUNT(*)
	FROM date_dim JOIN store_sales ON d_date_sk = ss_sold_date_sk JOIN store ON ss_store_sk = s_store_sk
	WHERE d_moy = %d AND s_state = '%s'
	GROUP BY s_store_name ORDER BY s_store_name`, moy, state)
}

// topCustomers: per-customer spending, HAVING, top-k with names.
func topCustomers(limit, minSpend int) string {
	return fmt.Sprintf(`SELECT c_customer_sk, c_first_name, c_last_name, SUM(ss_ext_sales_price) AS spend
	FROM customer JOIN store_sales ON c_customer_sk = ss_customer_sk
	GROUP BY c_customer_sk, c_first_name, c_last_name HAVING spend > %d
	ORDER BY CAST(spend AS BIGINT) DESC, c_customer_sk LIMIT %d`, minSpend, limit)
}

// quantityBuckets: case-when bucket sums over the fact table.
func quantityBuckets(cut int) string {
	return fmt.Sprintf(`SELECT bucket, COUNT(*), SUM(sales), AVG(profit)
	FROM (SELECT CASE WHEN ss_quantity < %d THEN 0 ELSE 1 END AS bucket,
			ss_ext_sales_price AS sales, ss_net_profit AS profit
		FROM store_sales) buckets
	GROUP BY bucket ORDER BY bucket`, cut)
}

// priceBandTotals: selective BETWEEN scan with global aggregates.
func priceBandTotals(lo, hi int) string {
	return fmt.Sprintf(`SELECT COUNT(*), SUM(ss_ext_sales_price), MIN(ss_net_profit), MAX(ss_net_profit)
	FROM store_sales WHERE ss_sales_price BETWEEN %d AND %d AND ss_quantity > 2`, lo, hi)
}

// classAffinity: items of a class self-joined through sales (long hash
// chains on the probe side).
func classAffinity(class string) string {
	return fmt.Sprintf(`SELECT ss_store_sk, COUNT(*), SUM(ss_ext_sales_price)
	FROM item JOIN store_sales ON i_item_sk = ss_item_sk
	WHERE i_class = '%s'
	GROUP BY ss_store_sk ORDER BY CAST(ss_store_sk AS BIGINT)`, class)
}

// multiAggReport: wide aggregate over a year, grouped by store or class.
func multiAggReport(byStore bool, year int) string {
	key, join := "i_class", "JOIN item ON ss_item_sk = i_item_sk"
	if byStore {
		key, join = "s_store_name", "JOIN store ON ss_store_sk = s_store_sk"
	}
	return fmt.Sprintf(`SELECT %[1]s, COUNT(*), SUM(ss_quantity), AVG(ss_sales_price), MIN(ss_net_profit),
		MAX(ss_net_profit), SUM(ss_ext_sales_price)
	FROM date_dim JOIN store_sales ON d_date_sk = ss_sold_date_sk %[2]s
	WHERE d_year = %[3]d
	GROUP BY %[1]s ORDER BY %[1]s`, key, join, year)
}
