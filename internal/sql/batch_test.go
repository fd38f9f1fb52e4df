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
	p, err := w.Prepare(engine.Backend(eng), "q", node)
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
