package qc

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// concurrentWork is what goroutine g of TestConcurrentStatements does on
// db: it creates a table of its own, appends to it, and runs 25 statements —
// constant variants of the sql_adhoc families (batch kernels, probe kernels,
// tuple code into a sort, shape hits after each family's first), a sort with
// a LIMIT, and statements over its table. It returns each statement's rows,
// or its error, in order.
func concurrentWork(db *DB, g int) []string {
	var out []string
	tbl, err := db.CreateTable(fmt.Sprintf("g%d", g), 16, Column{"k", Int64}, Column{"v", Int32})
	if err != nil {
		return []string{err.Error()}
	}
	for i := int64(0); i < 16; i++ {
		if err := tbl.Append(i%3, i*int64(g+1)); err != nil {
			return append(out, err.Error())
		}
	}
	for i := 0; i < 25; i++ {
		var q string
		switch {
		case i%5 == 4:
			q = fmt.Sprintf("SELECT k, SUM(v), COUNT(*) FROM g%d WHERE v > %d GROUP BY k", g, i)
		case i%7 == 6:
			q = fmt.Sprintf("SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > %d "+
				"ORDER BY o_totalprice DESC, o_orderkey LIMIT 5", 1000*(i+g))
		default:
			q = adhocStatement((g+i)%6, (i+g)%4)
		}
		res, err := db.Exec(q)
		if err != nil {
			out = append(out, err.Error())
			continue
		}
		rows := make([]string, len(res.Rows))
		for r, row := range res.Rows {
			rows[r] = strings.Join(row, "|")
		}
		out = append(out, strings.Join(rows, "\n"))
	}
	return out
}

// TestConcurrentStatements: four goroutines run concurrentWork on one cached
// database at once, sequentially and at four executor workers, and each gets
// the rows the same work gets on a database of its own. qc.DB serialises its
// calls; without that, statements on one database shared the machine, its
// runtime and the cache's scratch, and returned wrong rows or errors.
func TestConcurrentStatements(t *testing.T) {
	const goroutines = 4
	for _, jobs := range []int{1, 4} {
		want := make([][]string, goroutines)
		for g := range want {
			want[g] = concurrentWork(openTPCH(t, 0.01, WithEngine("directemit"), WithExecJobs(jobs)), g)
		}
		db := openTPCH(t, 0.01, WithEngine("directemit"), WithCacheMB(64), WithExecJobs(jobs))
		got := make([][]string, goroutines)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = concurrentWork(db, g)
			}()
		}
		wg.Wait()
		for g := range got {
			if len(got[g]) != len(want[g]) {
				t.Fatalf("%d workers, goroutine %d: %d results, want %d", jobs, g, len(got[g]), len(want[g]))
			}
			for i := range got[g] {
				if !reflect.DeepEqual(got[g][i], want[g][i]) {
					t.Errorf("%d workers, goroutine %d, statement %d: got\n%s\nwant\n%s", jobs, g, i, got[g][i], want[g][i])
				}
			}
		}
	}
}
