package qc

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"qcc/internal/obs"
)

// What running batch kernels by default buys and keeps, stated on counters
// under Open's defaults, on the four engines of the benchmark's sql_adhoc
// workload: vm instructions, kernel calls and program-cache hits, all
// functions of the code and the data alone. No test here reads a clock.

var adhocEngines = []string{"directemit", "cranelift", "llvm-opt", "gcc"}

// adhocStatement is variant v of family f of the benchmark's sql_adhoc
// workload (benchmark/stream.go): constant variants of six fixed shapes.
func adhocStatement(f, v int) string {
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	n := int64(v)
	switch f {
	case 0: // q1-shaped
		return fmt.Sprintf("SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), "+
			"SUM(l_extendedprice * (100 - l_discount)), AVG(l_quantity), AVG(l_extendedprice), COUNT(*) "+
			"FROM lineitem WHERE l_shipdate <= %d GROUP BY l_returnflag, l_linestatus", 10400-15*n)
	case 1: // q6-shaped
		lo := 9000 + 20*n
		return fmt.Sprintf("SELECT SUM(l_extendedprice * l_discount), COUNT(*) FROM lineitem "+
			"WHERE l_shipdate >= %d AND l_shipdate < %d AND l_discount >= %d AND l_discount <= %d AND l_quantity < %d",
			lo, lo+365, 3+n%3, 6+n%3, 24+n%6)
	case 2: // q3-shaped
		d := 9200 - 10*n
		return fmt.Sprintf("SELECT o_orderkey, SUM(l_extendedprice * (100 - l_discount)) AS revenue "+
			"FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey "+
			"WHERE c_mktsegment = '%s' AND o_orderdate < %d AND l_shipdate > %d "+
			"GROUP BY o_orderkey ORDER BY revenue DESC, o_orderkey LIMIT 10", segments[v%len(segments)], d, d)
	case 3: // q12-shaped
		lo := 8400 + 30*n
		return fmt.Sprintf("SELECT l_shipmode, COUNT(*), SUM(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END) "+
			"FROM orders JOIN lineitem ON o_orderkey = l_orderkey "+
			"WHERE l_receiptdate >= %d AND l_receiptdate < %d AND l_commitdate < l_receiptdate "+
			"GROUP BY l_shipmode", lo, lo+365)
	case 4:
		lo := 8100 + 40*n
		return fmt.Sprintf("SELECT o_orderpriority, COUNT(*), SUM(o_totalprice) FROM orders "+
			"WHERE o_orderdate >= %d AND o_orderdate < %d GROUP BY o_orderpriority", lo, lo+500)
	default:
		return fmt.Sprintf("SELECT c_nationkey, COUNT(*), AVG(c_acctbal), MAX(c_acctbal) FROM customer "+
			"WHERE c_acctbal > %d AND c_mktsegment = '%s' GROUP BY c_nationkey", 2000*n, segments[v%len(segments)])
	}
}

func openTPCH(t *testing.T, sf float64, opts ...Option) *DB {
	t.Helper()
	db, err := Open(append([]Option{WithMemoryMB(128)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTPCH(sf); err != nil {
		t.Fatal(err)
	}
	return db
}

// execCounted runs one statement and returns its rows, sorted, and the vm
// instructions it executed.
func execCounted(t *testing.T, db *DB, q string) (*Result, []string, int64) {
	t.Helper()
	m := db.w.DB.M
	before := m.Executed
	res, err := db.Exec(q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	sort.Strings(rows)
	return res, rows, m.Executed - before
}

// TestCountersBatchDefault: the q1- and q6-shaped statements under Open's
// defaults return the rows of WithBatch(false), advance rt_batch_kernel_calls
// and run at most 1/50 of its vm instructions: each is one scan of lineitem
// into an aggregation, which the kernel runs whole. The q3- and q12-shaped
// statements return its rows too and advance rt_batch_probe_calls: their
// lineitem probes (and q3's probe of orders into the second join's build)
// run as probe kernels. What stays tuple code is the group scan and, in q3,
// the sort of the groups and its comparator calls, so q3 runs at most 1/8 of
// WithBatch(false)'s instructions (measured 8.9–13.1x) and q12 at most 1/100
// (measured 180–244x).
func TestCountersBatchDefault(t *testing.T) {
	kernelCalls := obs.NewCounter("rt_batch_kernel_calls")
	probeCalls := obs.NewCounter("rt_batch_probe_calls")
	for _, engine := range adhocEngines {
		db := openTPCH(t, 0.02, WithEngine(engine))
		tuple := openTPCH(t, 0.02, WithEngine(engine), WithBatch(false))
		for _, f := range []int{0, 1, 2, 3} {
			q := adhocStatement(f, 0)
			calls0, probes0 := kernelCalls.Load(), probeCalls.Load()
			_, got, batchInstrs := execCounted(t, db, q)
			calls, probes := kernelCalls.Load()-calls0, probeCalls.Load()-probes0
			_, want, tupleInstrs := execCounted(t, tuple, q)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %q: rows %v, WithBatch(false) rows %v", engine, q, got, want)
			}
			if calls == 0 {
				t.Errorf("%s %q: no batch kernel call", engine, q)
			}
			ratio := []int64{50, 50, 8, 100}[f]
			if f >= 2 && probes == 0 {
				t.Errorf("%s %q: no probe kernel call", engine, q)
			}
			if batchInstrs*ratio > tupleInstrs {
				t.Errorf("%s %q: %d vm instructions, more than 1/%d of WithBatch(false)'s %d",
					engine, q, batchInstrs, ratio, tupleInstrs)
			}
			t.Logf("%s family %d: %d vm instructions, WithBatch(false) %d (%.0fx), %d kernel calls, %d probe",
				engine, f, batchInstrs, tupleInstrs, float64(tupleInstrs)/float64(batchInstrs), calls, probes)
		}
	}
}

// TestCountersAdhocProgramHits: with a code cache, every constant variant of
// the six sql_adhoc families after its first is a program hit under Open's
// defaults, and returns the rows of a database without a cache or kernels.
func TestCountersAdhocProgramHits(t *testing.T) {
	for _, engine := range adhocEngines {
		db := openTPCH(t, 0.01, WithEngine(engine), WithCacheMB(64))
		ref := openTPCH(t, 0.01, WithEngine(engine), WithBatch(false))
		for f := 0; f < 6; f++ {
			for v := 0; v < 4; v++ {
				q := adhocStatement(f, v)
				res, got, _ := execCounted(t, db, q)
				_, want, _ := execCounted(t, ref, q)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %q: rows %v, want %v", engine, q, got, want)
				}
				if res.Stats.ProgramHit != (v > 0) {
					t.Errorf("%s %q: program hit %v, want %v", engine, q, res.Stats.ProgramHit, v > 0)
				}
			}
		}
	}
}
