package sql_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qcc/internal/backend"
	"qcc/internal/codegen"
	"qcc/internal/engine"
	"qcc/internal/obs"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/sql"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// The batch-vs-tuple differential of the join kernels: the same statement
// compiled with batch kernels and as tuple code gives the same rows (floats
// bit for bit) and the same trap on every engine.

// addJoinTables adds the two tables of the kernel differentials to w. jb (24
// rows) is the smaller input, so the planner builds it; each of its keys
// 0..7 occurs three times, so a probe row matches a chain of three entries,
// and jp (200 rows) probes it with keys 0..9. Each key has an integer, a
// decimal (negative, so the high word is not zero) and a string form of 2,
// 9, 12, 13 or 22 bytes, on both sides of the 12-byte inline limit and
// sharing a 4-byte prefix with other keys of its length; so do jb_c's three
// values. jp_v holds one value whose product with jb_m overflows at a probe
// row with several matches.
func addJoinTables(w *engine.World) {
	cat := w.Cat
	strKey := func(k int) string {
		return fmt.Sprintf([]string{"k%d", "nine-by-%d", "twelve-byte%d", "thirteen-byt%d", "a longer key, number %d"}[k%5], k)
	}
	decKey := func(k int) rt.I128 { return rt.I128FromInt64(-1000003 * int64(k+1)) }
	jb := cat.CreateTable("jb", 24,
		rt.ColSpec{Name: "jb_k", Type: qir.I64}, rt.ColSpec{Name: "jb_d", Type: qir.I128},
		rt.ColSpec{Name: "jb_s", Type: qir.Str}, rt.ColSpec{Name: "jb_f", Type: qir.F64},
		rt.ColSpec{Name: "jb_m", Type: qir.I64}, rt.ColSpec{Name: "jb_c", Type: qir.Str})
	for i := int64(0); i < 24; i++ {
		k := int(i / 3)
		cat.SetInt(&jb.Cols[0], i, int64(k))
		cat.SetI128(&jb.Cols[1], i, decKey(k))
		cat.SetStr(&jb.Cols[2], i, strKey(k))
		cat.SetF64(&jb.Cols[3], i, math.Pow(10, float64(i%7))*1.1+0.3)
		cat.SetInt(&jb.Cols[4], i, 1+i%3)
		cat.SetStr(&jb.Cols[5], i, []string{"same-A", "same-B", "same-C"}[i%3])
	}
	jp := cat.CreateTable("jp", 200,
		rt.ColSpec{Name: "jp_k", Type: qir.I64}, rt.ColSpec{Name: "jp_d", Type: qir.I128},
		rt.ColSpec{Name: "jp_s", Type: qir.Str}, rt.ColSpec{Name: "jp_f", Type: qir.F64},
		rt.ColSpec{Name: "jp_v", Type: qir.I64}, rt.ColSpec{Name: "jp_g", Type: qir.I32})
	for i := int64(0); i < 200; i++ {
		k := int(i % 10)
		cat.SetInt(&jp.Cols[0], i, int64(k))
		cat.SetI128(&jp.Cols[1], i, decKey(k))
		cat.SetStr(&jp.Cols[2], i, strKey(k))
		cat.SetF64(&jp.Cols[3], i, 1/float64(i+3))
		v := i * 7
		if i == 131 { // key 1: jb_m is 1, 2, 3 along its chain
			v = math.MaxInt64/2 + 1
		}
		cat.SetInt(&jp.Cols[4], i, v)
		cat.SetInt(&jp.Cols[5], i, i%4)
	}
}

// exact is one execution's outcome: its rows in output order, every float by
// its bits, and its trap, if it trapped, with the instruction at the trap's
// PC on an engine whose code runs on the vm (the zero Op on the others).
type exact struct {
	rows   []string
	trap   *vm.Trap
	trapOp vt.Op
}

func runExact(t *testing.T, w *engine.World, eng, q string) exact {
	t.Helper()
	node, err := sql.Parse(q, w.Cat)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	c, err := w.Lower("q", node)
	if err != nil {
		t.Fatalf("%s: compile %q: %v", eng, q, err)
	}
	p, err := w.Compile(engine.Backend(eng), c)
	if err != nil {
		t.Fatalf("%s: compile %q: %v", eng, q, err)
	}
	_, err = w.Run(p)
	var x exact
	for _, row := range w.DB.Out.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
			if v.Kind == rt.OutF64Kind {
				parts[i] = fmt.Sprintf("%#x", math.Float64bits(v.F))
			}
		}
		x.rows = append(x.rows, strings.Join(parts, "|"))
	}
	w.Release()
	if err != nil && !errors.As(err, &x.trap) {
		t.Fatalf("%s: run %q: %v", eng, q, err)
	}
	if mod := backend.ModuleOf(p.Exec); x.trap != nil && mod != nil {
		for i, off := range mod.Prog.Offsets {
			if off == x.trap.PC {
				x.trapOp = mod.Prog.Instrs[i].Op
			}
		}
	}
	return x
}

// runModes runs q as tuple code and with batch kernels and reports the two
// outcomes and the scan and probe kernel calls of the batch run.
func runModes(t *testing.T, w *engine.World, eng, q string) (tuple, batch exact, scans, probes int64) {
	t.Helper()
	kernels, probeCalls := obs.NewCounter("rt_batch_kernel_calls"), obs.NewCounter("rt_batch_probe_calls")
	w.Batch = false
	tuple = runExact(t, w, eng, q)
	w.Batch = true
	k0, p0 := kernels.Load(), probeCalls.Load()
	batch = runExact(t, w, eng, q)
	probes = probeCalls.Load() - p0
	return tuple, batch, kernels.Load() - k0 - probes, probes
}

// sameOutcome reports whether two executions agree: equal rows and, when
// they trap, equal trap codes.
func sameOutcome(a, b exact) bool {
	if (a.trap == nil) != (b.trap == nil) || a.trap != nil && a.trap.Code != b.trap.Code {
		return false
	}
	return reflect.DeepEqual(a.rows, b.rows)
}

// TestBatchProbeDifferential: probe kernels against tuple code on every
// engine, on hand-written statements over addJoinTables (duplicate build
// keys walked in chain order, float sums compared bit for bit, decimal and
// string keys, an empty build side, a CASE over a build column, and an
// overflow at a probe row with several matches: same trap code, no rows
// before it) and on generated
// two- and three-table TPC-H joins from TestJoinPlanDifferential's
// generator, with rows and trap codes equal. A kernel's trap PC is not the
// tuple code's: the trap is raised from the runtime call, so its PC is the
// call's. The test holds it to that, and to the same PC on every run, at 1
// and at 4 workers (the workers call the pipeline's morsel function, so the
// PC moves with the worker count, as the tuple code's does).
func TestBatchProbeDifferential(t *testing.T) {
	w := loadTPCH(t, 0.01)
	addJoinTables(w)
	cases := []struct {
		q     string
		empty bool // the statement returns no row
		trap  bool // the statement overflows
	}{
		{q: "SELECT jp_g, COUNT(*), SUM(jb_f), SUM(jp_f * jb_f), AVG(jb_f), MIN(jb_f) FROM jb JOIN jp ON jb_k = jp_k GROUP BY jp_g"},
		{q: "SELECT jb_k, jp_g, SUM(jb_f + jp_f) FROM jb JOIN jp ON jp_k = jb_k GROUP BY jb_k, jp_g ORDER BY jb_k, jp_g"},
		{q: "SELECT jp_g, COUNT(*), MIN(jb_d), MAX(jp_d), SUM(jb_m) FROM jb JOIN jp ON jb_d = jp_d WHERE jp_v < 1000 GROUP BY jp_g"},
		{q: "SELECT jb_c, COUNT(*), SUM(CASE WHEN jb_c = 'same-A' THEN 1 ELSE 0 END), SUM(CASE WHEN jp_s = 'twelve-byte7' THEN jb_m ELSE jp_k END) " +
			"FROM jb JOIN jp ON jb_s = jp_s GROUP BY jb_c"},
		{q: "SELECT jp_s, COUNT(*), MAX(jb_m) FROM jb JOIN jp ON jp_s = jb_s WHERE jp_s <> 'nine-by-6' GROUP BY jp_s"},
		{q: "SELECT jp_g, COUNT(*) FROM jb JOIN jp ON jb_k = jp_k WHERE jb_k < 0 GROUP BY jp_g", empty: true},
		{q: "SELECT jp_g, SUM(jp_v * jb_m) FROM jb JOIN jp ON jb_k = jp_k GROUP BY jp_g", trap: true},
	}
	for _, eng := range engine.BackendNames() {
		var pc, tuplePC int32
		for _, c := range cases {
			tuple, batch, _, probes := runModes(t, w, eng, c.q)
			if !sameOutcome(tuple, batch) {
				t.Errorf("%s: %q: batch %d rows (trap %v), tuple %d rows (trap %v)\n%v\n%v",
					eng, c.q, len(batch.rows), batch.trap, len(tuple.rows), tuple.trap, batch.rows, tuple.rows)
			}
			if probes == 0 {
				t.Errorf("%s: %q: no probe kernel ran", eng, c.q)
			}
			if (len(batch.rows) == 0) != (c.empty || c.trap) || (batch.trap != nil) != c.trap {
				t.Errorf("%s: %q: %d rows, trap %v", eng, c.q, len(batch.rows), batch.trap)
			}
			if c.trap && batch.trap != nil {
				jobs0 := w.ExecJobs
				for _, jobs := range []int{1, 4} {
					w.ExecJobs = jobs
					first := runExact(t, w, eng, c.q)
					again := runExact(t, w, eng, c.q)
					if first.trap == nil || again.trap == nil || again.trap.PC != first.trap.PC {
						t.Errorf("%s: %q: at %d workers, trap %v, then %v", eng, c.q, jobs, first.trap, again.trap)
					} else if first.trapOp != 0 && first.trapOp != vt.CallRT {
						t.Errorf("%s: %q: at %d workers, trap at +%d, a %v, not the runtime call", eng, c.q, jobs, first.trap.PC, first.trapOp)
					}
				}
				w.ExecJobs = jobs0
				pc = batch.trap.PC
				if tuple.trap != nil {
					tuplePC = tuple.trap.PC
				}
			}
		}
		t.Logf("%s: overflow raised at +%d (the kernel call), tuple code at +%d", eng, pc, tuplePC)
	}

	n := 40
	if testing.Short() {
		n = 10
	}
	rng := rand.New(rand.NewSource(34))
	var totalProbes int64
	trapped := 0
	for i := 0; i < n; i++ {
		q := genStatement(rng, 2+rng.Intn(2)).sql
		for _, eng := range engine.BackendNames() {
			tuple, batch, _, probes := runModes(t, w, eng, q)
			totalProbes += probes
			if !sameOutcome(tuple, batch) {
				t.Errorf("%s: %q: batch %d rows (trap %v), tuple %d rows (trap %v)",
					eng, q, len(batch.rows), batch.trap, len(tuple.rows), tuple.trap)
			}
			if batch.trap != nil {
				trapped++
			}
		}
	}
	if totalProbes == 0 {
		t.Error("no generated statement ran a probe kernel")
	}
	t.Logf("%d generated statements × %d engines: %d probe kernel calls, %d executions trapped",
		n, len(engine.BackendNames()), totalProbes, trapped)
}

// TestDecimalAndStringKeyedJoins: joins on decimal and string keys give the
// same rows on every engine, as tuple code and with batch kernels, for each
// pairing of a kernel or tuple-code build side with a kernel or tuple-code
// probe. (The C back-end's 128-bit logical shift once read the low word, so
// its tuple-code hash of a decimal key disagreed with a kernel-built table.)
func TestDecimalAndStringKeyedJoins(t *testing.T) {
	w := loadTPCH(t, 0.01)
	addJoinTables(w)
	// A LIKE keeps a build side tuple code; arithmetic in a probe filter
	// keeps the probe tuple code.
	builds := map[bool]string{true: "jb_k >= 0", false: "jb_c LIKE '%'"}
	probes := map[bool]string{true: "jp_k >= 0", false: "jp_k + 1 > 0"}
	var stmts []string
	for _, key := range []string{"jb_d = jp_d", "jp_s = jb_s"} {
		for _, bk := range []bool{true, false} {
			for _, pk := range []bool{true, false} {
				stmts = append(stmts, fmt.Sprintf("SELECT jp_g, COUNT(*), SUM(jb_m) FROM jb JOIN jp ON %s WHERE %s AND %s GROUP BY jp_g",
					key, builds[bk], probes[pk]))
			}
		}
	}
	stmts = append(stmts, "SELECT COUNT(*) FROM orders JOIN lineitem ON o_totalprice = l_extendedprice",
		"SELECT l_returnflag, COUNT(*) FROM orders JOIN lineitem ON o_totalprice = l_extendedprice GROUP BY l_returnflag")
	ref := map[string][]string{}
	for _, eng := range engine.BackendNames() {
		for i, q := range stmts {
			tuple, batch, scans, probeCalls := runModes(t, w, eng, q)
			if !sameOutcome(tuple, batch) || tuple.trap != nil {
				t.Errorf("%s: %q: batch %v (trap %v), tuple %v (trap %v)", eng, q, batch.rows, batch.trap, tuple.rows, tuple.trap)
			}
			got := append([]string(nil), batch.rows...)
			sort.Strings(got)
			if want, ok := ref[q]; !ok {
				ref[q] = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %q: rows %v, %s's %v", eng, q, got, engine.BackendNames()[0], want)
			}
			if i < 8 {
				bk, pk := i&2 == 0, i&1 == 0
				if (scans > 0) != bk || (probeCalls > 0) != pk {
					t.Errorf("%s: %q: %d build kernel calls, %d probe kernel calls; want a kernel build %v, a kernel probe %v",
						eng, q, scans, probeCalls, bk, pk)
				}
				if len(got) == 0 {
					t.Errorf("%s: %q: no rows", eng, q)
				}
			}
		}
	}
}

// TestWidenedColumnsRunKernels: where an INT column meets a BIGINT operand —
// another column, or a literal that does not fit INT — the parser widens the
// column with a cast, and a kernel reads the widened column as it reads the
// column: sign-extended to 64 bits, as the tuple code's sext widens it. Such
// filters and sums run as scan kernels with the rows of tuple code on every
// engine, over INT values of both signs and at both ends of the range. Casts
// to DECIMAL or DOUBLE, and a negative literal out of INT's range, which
// parses as a subtraction, stay tuple code.
func TestWidenedColumnsRunKernels(t *testing.T) {
	w := engine.NewWorld(engine.Options{MemMB: 16})
	ints := []int64{math.MinInt32, -70000, -5, -1, 0, 1, 7, 70000, math.MaxInt32}
	wc := w.Cat.CreateTable("wc", int64(len(ints)),
		rt.ColSpec{Name: "a", Type: qir.I32}, rt.ColSpec{Name: "b", Type: qir.I64}, rt.ColSpec{Name: "f", Type: qir.F64})
	for i, v := range ints {
		w.Cat.SetInt(&wc.Cols[0], int64(i), v)
		w.Cat.SetInt(&wc.Cols[1], int64(i), int64(i)-4)
		w.Cat.SetF64(&wc.Cols[2], int64(i), float64(i)-4.5)
	}
	cases := []struct {
		q      string
		kernel bool
	}{
		{"SELECT COUNT(*), SUM(b) FROM wc WHERE a < 5000000000", true},
		{"SELECT COUNT(*), SUM(b) FROM wc WHERE b > a", true},
		{"SELECT COUNT(*), SUM(b - a), MIN(a + b) FROM wc WHERE a < 5000000000 AND b <= a", true},
		{"SELECT COUNT(*), SUM(b) FROM wc WHERE a > -5000000000", false},
		{"SELECT COUNT(*), SUM(b) FROM wc WHERE a < 2.5", false},
		{"SELECT COUNT(*), SUM(b) FROM wc WHERE a < f", false},
	}
	for _, eng := range engine.BackendNames() {
		for _, c := range cases {
			tuple, batch, scans, _ := runModes(t, w, eng, c.q)
			if !sameOutcome(tuple, batch) || tuple.trap != nil || len(tuple.rows) != 1 {
				t.Errorf("%s: %q: batch %v (trap %v), tuple %v (trap %v)", eng, c.q, batch.rows, batch.trap, tuple.rows, tuple.trap)
			}
			if (scans > 0) != c.kernel {
				t.Errorf("%s: %q: %d kernel calls, want a kernel %v", eng, c.q, scans, c.kernel)
			}
		}
	}
}

// TestDeclinedKernelsGiveBackTheirSlots: each statement's kernel is declined
// after its walk took pool slots (a string ordering or BETWEEN that
// rt.CheckBatchSpec rejects, a CASE of strings, an arithmetic filter or an
// OR after a literal filter, a probe of a build side with a boolean column
// or with a string ordering), and it compiles with batch kernels to the same
// module, pool and literal lists as without them. A probe kernel that
// declines after its build side was generated as a kernel leaves as many
// pipelines as tuple code, and the rows of tuple code on every engine.
func TestDeclinedKernelsGiveBackTheirSlots(t *testing.T) {
	w := loadTPCH(t, 0.01)
	lower := func(q string, batch bool) *codegen.Compiled {
		t.Helper()
		node, err := sql.Parse(q, w.Cat)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		w.Batch = batch
		c, err := w.Lower("q", node)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		return c
	}
	for _, q := range []string{
		"SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_quantity < 5 AND l_shipmode < 'RAIL'",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 5 AND l_shipmode BETWEEN 'AIR' AND 'RAIL'",
		"SELECT COUNT(CASE WHEN l_quantity < 5 THEN 'a' ELSE 'b' END) FROM lineitem WHERE l_tax < 0.05",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 5 AND l_quantity * 2 < 7",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 5 AND (l_quantity = 1 OR l_quantity = 3)",
		"SELECT COUNT(*) FROM (SELECT o_orderkey, o_orderdate < 5 AS b FROM orders) x JOIN lineitem ON x.o_orderkey = l_orderkey " +
			"WHERE l_quantity < 5",
		"SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey " +
			"WHERE (o_orderdate < 9000 OR o_orderdate > 9500) AND l_quantity < 5 AND l_shipmode < 'RAIL'",
	} {
		tuple, batch := lower(q, false), lower(q, true)
		for _, p := range batch.Pipelines {
			if p.Kernel != nil {
				t.Errorf("%q: a kernel was not declined", q)
			}
		}
		if batch.Module.String() != tuple.Module.String() || !reflect.DeepEqual(batch.Module.Pool, tuple.Module.Pool) ||
			!reflect.DeepEqual(batch.PoolLits, tuple.PoolLits) || !reflect.DeepEqual(batch.InlineLits, tuple.InlineLits) {
			t.Errorf("%q: the declined kernel left a trace: pool of %d (want %d), %d pool and %d inline literals (want %d and %d)",
				q, len(batch.Module.Pool), len(tuple.Module.Pool), len(batch.PoolLits), len(batch.InlineLits),
				len(tuple.PoolLits), len(tuple.InlineLits))
		}
	}

	q := "SELECT COUNT(*), SUM(l_extendedprice) FROM orders JOIN lineitem ON o_orderkey = l_orderkey " +
		"WHERE l_quantity < 5 AND l_shipmode < 'RAIL'"
	tuple, batch := lower(q, false), lower(q, true)
	kernels := 0
	for _, p := range batch.Pipelines {
		if p.Kernel != nil {
			kernels++
			if len(p.Kernel.Spec().Probe) > 0 {
				t.Errorf("%q: the probe kernel was not declined", q)
			}
		}
	}
	if len(batch.Pipelines) != len(tuple.Pipelines) || kernels != 1 {
		t.Errorf("%q: %d pipelines, %d kernels; %d pipelines as tuple code", q, len(batch.Pipelines), kernels, len(tuple.Pipelines))
	}
	for _, eng := range engine.BackendNames() {
		if tr, br, _, _ := runModes(t, w, eng, q); !sameOutcome(tr, br) || tr.trap != nil || len(tr.rows) != 1 {
			t.Errorf("%s: %q: batch %v (trap %v), tuple %v (trap %v)", eng, q, br.rows, br.trap, tr.rows, tr.trap)
		}
	}
}
