// Backends: run the same analytical query with every compilation back-end
// and compare compile time, execution time, and results — a miniature of
// the paper's Table III. Batch kernels are off, so every pipeline runs as the
// code each back-end generated.
package main

import (
	"fmt"
	"log"

	"qcc"
)

func main() {
	db, err := qc.Open(qc.WithMemoryMB(512), qc.WithBatch(false))
	if err != nil {
		log.Fatal(err)
	}
	if err := db.LoadTPCH(0.05); err != nil {
		log.Fatal(err)
	}

	query := `
		SELECT l_returnflag, l_linestatus,
		       SUM(l_quantity) AS sum_qty,
		       SUM(l_extendedprice) AS sum_price,
		       COUNT(*) AS cnt
		FROM lineitem
		WHERE l_shipdate <= 10400
		GROUP BY l_returnflag, l_linestatus
		ORDER BY l_returnflag, l_linestatus`

	var reference [][]string
	fmt.Printf("%-14s %12s %12s %8s\n", "engine", "compile", "execute", "rows")
	for _, engine := range qc.Engines() {
		if engine == "adaptive" {
			continue // tiered; shown in the adaptive example
		}
		res, err := db.ExecWith(engine, query)
		if err != nil {
			log.Fatalf("%s: %v", engine, err)
		}
		fmt.Printf("%-14s %12v %12v %8d\n", engine,
			res.Stats.CompileTime.Round(10_000), res.Stats.ExecTime.Round(10_000), len(res.Rows))
		if reference == nil {
			reference = res.Rows
		} else if fmt.Sprint(res.Rows) != fmt.Sprint(reference) {
			log.Fatalf("%s disagrees with the reference results!", engine)
		}
	}

	fmt.Println("\nall engines produced identical results:")
	for _, row := range reference {
		fmt.Println(" ", row)
	}
}
