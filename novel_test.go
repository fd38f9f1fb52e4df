package qc

import (
	"fmt"
	"reflect"
	"testing"

	"qcc/internal/obs"
)

// novelKernelStatements are single-table statements of one output layout —
// a string key, a decimal sum and a count — that differ in their filters and
// in the sum's argument, so no two share a plan shape. Each runs a scan
// kernel into an aggregation.
var novelKernelStatements = []string{
	"SELECT l_returnflag, SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_shipdate < 9500 GROUP BY l_returnflag",
	"SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem WHERE l_discount >= 5 GROUP BY l_returnflag",
	"SELECT l_returnflag, SUM(l_extendedprice * l_discount), COUNT(*) FROM lineitem " +
		"WHERE l_quantity < 20 AND l_shipmode = 'AIR' GROUP BY l_returnflag",
	"SELECT l_returnflag, SUM(l_tax), COUNT(*) FROM lineitem " +
		"WHERE l_receiptdate >= 9000 AND l_receiptdate < 9700 AND l_commitdate < l_receiptdate GROUP BY l_returnflag",
	"SELECT l_returnflag, SUM(l_extendedprice * (100 - l_tax)), COUNT(*) FROM lineitem " +
		"WHERE l_shipmode = 'RAIL' GROUP BY l_returnflag",
}

// novelProbeStatements are q12-shaped statements (a probe kernel over
// lineitem into orders' join table) that differ in the filters of the
// probing scan.
var novelProbeStatements = []string{
	adhocStatement(3, 0),
	"SELECT l_shipmode, COUNT(*), SUM(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END) " +
		"FROM orders JOIN lineitem ON o_orderkey = l_orderkey " +
		"WHERE l_shipdate >= 9100 AND l_shipdate < l_commitdate GROUP BY l_shipmode",
	"SELECT l_shipmode, COUNT(*), SUM(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END) " +
		"FROM orders JOIN lineitem ON o_orderkey = l_orderkey " +
		"WHERE l_quantity < 30 AND l_discount > 2 AND l_commitdate < l_receiptdate GROUP BY l_shipmode",
}

// TestNovelKernelShapesCompileNothing: a batch kernel is data beside the
// code, so statements that differ only in what their kernels compute compile
// to the same code. On a database with a code cache, each statement after
// the first is a program miss served from the code level: a code hit that
// analyses no function, looks up no unit and fuses no module, and reports
// every unit a cache hit. That holds on each engine of the benchmark's
// sql_adhoc workload, sequentially and at 4 workers, for scan kernels and
// probe kernels; and the rows are those of a database without a cache and of
// the interpreter.
func TestNovelKernelShapesCompileNothing(t *testing.T) {
	kernelCalls := obs.NewCounter("rt_batch_kernel_calls")
	probeCalls := obs.NewCounter("rt_batch_probe_calls")
	codeHits := obs.NewCounter("engine.code_cache_hits")
	var still []*obs.Counter // what a code hit must not advance
	for _, name := range []string{"sa.functions_analyzed", "pcc.cache_hits", "pcc.cache_misses",
		"vm_fuse_modules", "vm_fuse_orig_instrs", "vm_fuse_micro_ops"} {
		still = append(still, obs.NewCounter(name))
	}
	interp := openTPCH(t, 0.01, WithEngine("interpreter"))
	for _, jobs := range []int{1, 4} {
		for _, engine := range adhocEngines {
			cached := openTPCH(t, 0.01, WithEngine(engine), WithCacheMB(64), WithExecJobs(jobs))
			plain := openTPCH(t, 0.01, WithEngine(engine), WithExecJobs(jobs))
			for _, probe := range []bool{false, true} {
				stmts := novelKernelStatements
				if probe {
					stmts = novelProbeStatements
				}
				for i, q := range stmts {
					name := fmt.Sprintf("%s at %d workers, %q", engine, jobs, q)
					calls0, probes0, codeHits0 := kernelCalls.Load(), probeCalls.Load(), codeHits.Load()
					still0 := make([]int64, len(still))
					for k, c := range still {
						still0[k] = c.Load()
					}
					res, got, _ := execCounted(t, cached, q)
					if kernelCalls.Load() == calls0 || probe && probeCalls.Load() == probes0 {
						t.Errorf("%s: ran no batch kernel of its kind", name)
					}
					if i > 0 {
						if codeHits.Load() == codeHits0 {
							t.Errorf("%s: not a code hit", name)
						}
						for k, c := range still {
							if d := c.Load() - still0[k]; d != 0 {
								t.Errorf("%s: %s advanced by %d", name, c.Name(), d)
							}
						}
					}
					_, want, _ := execCounted(t, plain, q)
					_, ref, _ := execCounted(t, interp, q)
					if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, ref) {
						t.Errorf("%s: rows %v, without a cache %v, interpreter %v", name, got, want, ref)
					}
					if res.Stats.ProgramHit {
						t.Errorf("%s: a program hit; the statements must differ in shape", name)
					}
					if i > 0 && (res.Stats.CacheMisses != 0 || res.Stats.CacheHits == 0) {
						t.Errorf("%s: %d unit cache misses and %d hits, want 0 misses", name,
							res.Stats.CacheMisses, res.Stats.CacheHits)
					}
				}
			}
		}
	}
}
