package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qcc/internal/backend"
	"qcc/internal/obs"
	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
)

// outcome is what one statement produced on one world: its rows or error,
// and whether the program came from the statement-shape level (hit) or from
// the code level (code).
type outcome struct {
	rows      []string
	err       string
	hit, code bool
}

// execPlan takes a plan through prepare → Run → Release.
func execPlan(w *World, eng backend.Engine, node plan.Node) outcome {
	p, err := w.prepare(eng, "q", node)
	if err != nil {
		return outcome{err: err.Error()}
	}
	return runOutcome(w, eng, p)
}

// runOutcome runs p and releases what it produced.
func runOutcome(w *World, eng backend.Engine, p *Program) outcome {
	_, err := w.Run(p)
	o := outcome{rows: w.DB.Out.Canonical(), hit: p.Hit, code: p.CodeHit}
	if err != nil {
		o.err = err.Error()
		// A cached adaptive executable keeps its hotness and its promoted
		// tier, so it may trap in optimized code where a fresh one traps in
		// the baseline's: the same trap at another code offset.
		var trap *vm.Trap
		if eng.Name() == "Adaptive" && errors.As(err, &trap) {
			o.err = fmt.Sprintf("trap %s: %s", trap.Code, trap.Msg)
		}
	}
	w.Release()
	return o
}

// execSQL takes SQL text through PrepareSQL → Run → Release.
func execSQL(t *testing.T, w *World, eng backend.Engine, text string) outcome {
	t.Helper()
	p, _, err := w.PrepareSQL(eng, "q", text)
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	return runOutcome(w, eng, p)
}

// adhocFamily is variant v of family f of the benchmark's sql_adhoc workload
// (benchmark/stream.go): constant variants of six fixed shapes.
func adhocFamily(f, v int) string {
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

const adhocFamilies = 6

// checkPoolOverflow runs four statements with 300 literals, more than the
// constant pool's 256 slots, on a world with the code cache and one without:
// equal rows, and a hit exactly when the variant differs from the cached
// program in a pooled literal only. The first literal the code reads is
// pooled, the last is not.
func checkPoolOverflow(t *testing.T, o Options, engine string) {
	t.Helper()
	stmt := func(first, last int) string {
		var sb strings.Builder
		sb.WriteString("SELECT COUNT(*) FROM lineitem WHERE l_quantity <> ")
		fmt.Fprint(&sb, first)
		for i := 1; i < 299; i++ {
			fmt.Fprintf(&sb, " AND l_orderkey <> %d", 1000000+i)
		}
		fmt.Fprintf(&sb, " AND l_quantity <> %d", last)
		return sb.String()
	}
	plain := loaded(t, o)
	o.CacheMB = 16
	cached := loaded(t, o)
	engC, engP := Backend(engine), Backend(engine)
	for i, c := range []struct {
		first, last int
		hit         bool
	}{{1, 2, false}, {3, 2, true}, {3, 4, false}, {5, 4, true}} {
		q := stmt(c.first, c.last)
		got, want := execSQL(t, cached, engC, q), execSQL(t, plain, engP, q)
		if !reflect.DeepEqual(got.rows, want.rows) || got.err != want.err || got.hit != c.hit {
			t.Errorf("statement %d: %v hit=%v (err %q), want %v hit=%v (err %q)", i, got.rows, got.hit, got.err, want.rows, c.hit, want.err)
		}
	}
}

// novelStatement draws one statement in the style of the benchmark's
// novel-shape grammar: 1-3 aggregates, 0-2 group keys and 0-3 column-vs-
// constant predicates over one table. Unlike the benchmark's it lets a column
// appear twice.
func novelStatement(rng *rand.Rand) string {
	type table struct {
		name   string
		aggs   []string
		keys   []string
		ranges []struct {
			col    string
			lo, hi int64
		}
		strs []struct {
			col    string
			values []string
		}
	}
	tables := []table{
		{name: "lineitem",
			aggs: []string{"l_quantity", "l_extendedprice", "l_discount", "l_tax",
				"l_extendedprice * l_discount", "l_extendedprice * (100 - l_tax)"},
			keys: []string{"l_returnflag", "l_linestatus", "l_shipmode"},
			ranges: []struct {
				col    string
				lo, hi int64
			}{{"l_shipdate", 8036, 10500}, {"l_quantity", 1, 50}, {"l_discount", 0, 10}, {"l_extendedprice", 100, 1000100}},
			strs: []struct {
				col    string
				values []string
			}{{"l_shipmode", []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}}, {"l_returnflag", []string{"A", "N", "R"}}}},
		{name: "orders",
			aggs: []string{"o_totalprice", "o_orderdate"},
			keys: []string{"o_orderstatus", "o_orderpriority"},
			ranges: []struct {
				col    string
				lo, hi int64
			}{{"o_orderdate", 8036, 10500}, {"o_totalprice", 1000, 50001000}},
			strs: []struct {
				col    string
				values []string
			}{{"o_orderstatus", []string{"O", "F"}}}},
		{name: "customer",
			aggs: []string{"c_acctbal", "c_nationkey"},
			keys: []string{"c_mktsegment", "c_nationkey"},
			ranges: []struct {
				col    string
				lo, hi int64
			}{{"c_acctbal", 0, 900001}, {"c_nationkey", 0, 24}},
			strs: []struct {
				col    string
				values []string
			}{{"c_mktsegment", []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}}}},
	}
	t := tables[rng.Intn(len(tables))]
	var items, preds []string
	keys := rng.Perm(len(t.keys))[:rng.Intn(3)]
	for _, k := range keys {
		items = append(items, t.keys[k])
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		if fn := []string{"SUM", "COUNT", "MIN", "MAX", "AVG"}[rng.Intn(5)]; fn == "COUNT" {
			items = append(items, "COUNT(*)")
		} else {
			items = append(items, fn+"("+t.aggs[rng.Intn(len(t.aggs))]+")")
		}
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		if rng.Intn(4) == 0 {
			c := t.strs[rng.Intn(len(t.strs))]
			preds = append(preds, fmt.Sprintf("%s = '%s'", c.col, c.values[rng.Intn(len(c.values))]))
		} else {
			c := t.ranges[rng.Intn(len(t.ranges))]
			preds = append(preds, fmt.Sprintf("%s %s %d", c.col, []string{"<", "<=", ">", ">="}[rng.Intn(4)], c.lo+rng.Int63n(c.hi-c.lo+1)))
		}
	}
	q := "SELECT " + strings.Join(items, ", ") + " FROM " + t.name
	if len(preds) > 0 {
		q += " WHERE " + strings.Join(preds, " AND ")
	}
	if len(keys) > 0 {
		q += " GROUP BY " + strings.Join(items[:len(keys)], ", ")
	}
	return q
}

// TestProgramCacheDifferential is the cache's soundness test: on every engine
// a world with the code cache and one without answer the same statements —
// the benchmark's six families, eight constant variants each, and 200 novel
// shapes — with the same rows and the same errors, statement by statement;
// and the cache earns its keep: every variant of a family after the first is
// served as a program hit.
func TestProgramCacheDifferential(t *testing.T) {
	novel := 200
	if testing.Short() {
		novel = 40
	}
	type stmt struct {
		text    string
		mustHit bool
	}
	// Variant by variant across the families, novel statements in between.
	var stmts []stmt
	rng := rand.New(rand.NewSource(15))
	for v := 0; v < 8; v++ {
		for f := 0; f < adhocFamilies; f++ {
			stmts = append(stmts, stmt{adhocFamily(f, v), v > 0})
			for i := 0; i < novel/(8*adhocFamilies); i++ {
				stmts = append(stmts, stmt{text: novelStatement(rng)})
			}
		}
	}
	for len(stmts) < 8*adhocFamilies+novel {
		stmts = append(stmts, stmt{text: novelStatement(rng)})
	}

	for _, name := range BackendNames() {
		t.Run(name, func(t *testing.T) {
			cached, plain := loaded(t, Options{CacheMB: 64}), loaded(t, Options{})
			engC, engP := Backend(name), Backend(name)
			hits := 0
			for _, s := range stmts {
				got, want := execSQL(t, cached, engC, s.text), execSQL(t, plain, engP, s.text)
				if want.hit {
					t.Fatalf("a world without a cache reports a hit")
				}
				if !reflect.DeepEqual(got.rows, want.rows) || got.err != want.err {
					t.Fatalf("%q (hit=%v)\n cached: %d rows, err %q\n   plain: %d rows, err %q\n%v\n%v",
						s.text, got.hit, len(got.rows), got.err, len(want.rows), want.err, got.rows, want.rows)
				}
				if s.mustHit && !got.hit {
					t.Errorf("%q: a later variant of its family, not served from the cache", s.text)
				}
				if got.hit {
					hits++
				}
			}
			if want := adhocFamilies * 7; hits < want {
				t.Errorf("%d program hits, want at least %d", hits, want)
			}
			t.Logf("%d of %d statements were program hits", hits, len(stmts))
		})
	}
}

// TestProgramCacheParallelMode repeats the family half of the differential
// with batch kernels and two executor workers: cached programs run on the
// persistent worker pool, and since kernel programs read their literals from
// the constant pool, every variant after a family's first is a hit.
func TestProgramCacheParallelMode(t *testing.T) {
	mode := Options{ExecJobs: 2, Batch: true}
	cachedMode := mode
	cachedMode.CacheMB = 64
	cached, plain := loaded(t, cachedMode), loaded(t, mode)
	engC, engP := Backend("cranelift"), Backend("cranelift")
	hits := 0
	for v := 0; v < 4; v++ {
		for f := 0; f < adhocFamilies; f++ {
			q := adhocFamily(f, v)
			got, want := execSQL(t, cached, engC, q), execSQL(t, plain, engP, q)
			if !reflect.DeepEqual(got.rows, want.rows) || got.err != want.err {
				t.Fatalf("%q (hit=%v): %v (err %q), want %v (err %q)", q, got.hit, got.rows, got.err, want.rows, want.err)
			}
			if got.hit {
				hits++
			}
		}
	}
	if want := 3 * adhocFamilies; hits != want {
		t.Errorf("%d program hits in batch + parallel mode, want %d", hits, want)
	}
}

// TestProgramCacheBatchVariants: with batch kernels, constant variants of a
// batch-eligible shape — a string, an integer and decimal literals in kernel
// filters and aggregate arguments — are program hits after the first, on
// every engine, and each returns the rows of a world without a cache.
func TestProgramCacheBatchVariants(t *testing.T) {
	shipmode := func(v int) string {
		return "SELECT l_shipmode, COUNT(*), SUM(l_quantity * " + fmt.Sprint(v+2) + ") FROM lineitem " +
			"WHERE l_shipmode = '" + []string{"AIR", "RAIL", "SHIP", "MAIL"}[v] + "' GROUP BY l_shipmode"
	}
	kernelCalls := obs.NewCounter("rt_batch_kernel_calls")
	for _, name := range BackendNames() {
		t.Run(name, func(t *testing.T) {
			cached, plain := loaded(t, Options{CacheMB: 16, Batch: true}), loaded(t, Options{Batch: true})
			engC, engP := Backend(name), Backend(name)
			calls0 := kernelCalls.Load()
			for _, family := range []func(int) string{shipmode,
				func(v int) string { return adhocFamily(0, v) }, func(v int) string { return adhocFamily(1, v) }} {
				for v := 0; v < 4; v++ {
					q := family(v)
					got, want := execSQL(t, cached, engC, q), execSQL(t, plain, engP, q)
					if !reflect.DeepEqual(got.rows, want.rows) || got.err != want.err {
						t.Errorf("%q: %v (err %q), want %v (err %q)", q, got.rows, got.err, want.rows, want.err)
					}
					if got.hit != (v > 0) {
						t.Errorf("%q: hit=%v, want %v", q, got.hit, v > 0)
					}
				}
			}
			if kernelCalls.Load() == calls0 {
				t.Error("no batch kernel ran")
			}
		})
	}
}

// TestProgramCacheMustMiss holds the cases a parametric entry must not serve.
func TestProgramCacheMustMiss(t *testing.T) {
	pinned0 := obsProgramPinned.Load()

	t.Run("limit", func(t *testing.T) {
		w, eng := loaded(t, Options{CacheMB: 16}), Backend("cranelift")
		q := "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT %d"
		a := execSQL(t, w, eng, fmt.Sprintf(q, 10))
		b := execSQL(t, w, eng, fmt.Sprintf(q, 5))
		c := execSQL(t, w, eng, fmt.Sprintf(q, 10))
		if len(a.rows) != 10 || len(b.rows) != 5 || b.hit || !c.hit {
			t.Errorf("LIMIT 10: %d rows; LIMIT 5: %d rows, hit=%v; LIMIT 10 again: hit=%v", len(a.rows), len(b.rows), b.hit, c.hit)
		}
	})

	t.Run("pool-overflow", func(t *testing.T) {
		// 300 literals: the pool takes 256, the rest stay inline and are
		// compiled in. A variant in a pooled literal hits; one in an inline
		// literal must not.
		checkPoolOverflow(t, Options{}, "directemit")
	})

	t.Run("batch-pool-overflow", func(t *testing.T) {
		// The same in one batch kernel: its filter takes the 256 slots, and
		// the program holds the 44 literals after them by value.
		kernelCalls := obs.NewCounter("rt_batch_kernel_calls")
		calls0, pinned0 := kernelCalls.Load(), obsProgramPinned.Load()
		checkPoolOverflow(t, Options{Batch: true}, "cranelift")
		if kernelCalls.Load() == calls0 {
			t.Error("the statements ran no batch kernel")
		}
		if n := obsProgramPinned.Load() - pinned0; n != 1 {
			t.Errorf("%d pinned mismatches, want 1", n)
		}
	})

	t.Run("reported-inline", func(t *testing.T) {
		// No plan the generator emits today keeps a literal inline because
		// the eliminator needs its value (codegen's TestRangeLoadBearingLiterals
		// builds such functions by hand and checks the report). What the cache
		// does with the report: take a compiled q6, add one of its literals to
		// InlineLits as the generator would have, and the entry serves only
		// plans that agree on it.
		w := loaded(t, Options{CacheMB: 16})
		node, err := w.Parse(adhocFamily(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		var fp plan.Fingerprint
		eng := Backend("cranelift")
		if !fp.Write(node) {
			t.Fatal("q6 has no fingerprint")
		}
		p, err := w.lowerCompile(eng, "q", node)
		if err != nil {
			t.Fatal(err)
		}
		vals := litValues(nil, fp.Lits)
		c, code := p.Compiled, newCodeEntry(p, w.DB)
		if ent, _ := bindPlan(code, nil, c.PoolLits, c.InlineLits, c.Module.Pool, &fp, vals, w.DB); ent == nil || len(ent.pinned) != 0 {
			t.Fatalf("q6 as generated: entry %+v, want one with nothing pinned", ent)
		}
		bearing := c.PoolLits[2]
		c.InlineLits = append(c.InlineLits, bearing)
		ent, _ := bindPlan(code, nil, c.PoolLits, c.InlineLits, c.Module.Pool, &fp, vals, w.DB)
		if ent == nil || len(ent.pinned) != 1 {
			t.Fatalf("entry %+v, want one pinned literal", ent)
		}
		if _, ok := ent.poolFor(code, vals, w.DB); !ok {
			t.Error("the entry does not serve its own plan")
		}
		lits := append([]plan.Expr(nil), fp.Lits...)
		ord, _ := fp.Ordinal(bearing)
		lits[ord] = &plan.ConstDec{V: rt.I128FromInt64(99)}
		if _, ok := ent.poolFor(code, litValues(nil, lits), w.DB); ok {
			t.Error("the entry serves a plan with another value for the literal it has compiled in")
		}
		lits[ord] = fp.Lits[ord]
		other := (ord + 1) % len(lits)
		lits[other] = &plan.ConstDec{V: rt.I128FromInt64(99)}
		if _, ok := ent.poolFor(code, litValues(nil, lits), w.DB); !ok {
			t.Error("the entry refuses a plan that differs in a pooled literal only")
		}
	})

	t.Run("table-recreated", func(t *testing.T) {
		w, eng := NewWorld(Options{MemMB: 16, CacheMB: 16}), Backend("directemit")
		fill := func(base int64) {
			tab := w.Cat.CreateTable("t", 8, rt.ColSpec{Name: "x", Type: qir.I64})
			for i := int64(0); i < 8; i++ {
				w.Cat.SetInt(tab.MustCol("x"), i, base+i)
			}
		}
		const q = "SELECT SUM(x) FROM t WHERE x >= 0"
		fill(0)
		a := execSQL(t, w, eng, q)
		fill(100) // same name, rows and schema; new column addresses
		b := execSQL(t, w, eng, q)
		c := execSQL(t, w, eng, q)
		if !reflect.DeepEqual(a.rows, []string{"28"}) || !reflect.DeepEqual(b.rows, []string{"828"}) || b.hit || !c.hit {
			t.Errorf("first table: %v; re-created: %v hit=%v; again: hit=%v", a.rows, b.rows, b.hit, c.hit)
		}
	})

	t.Run("two-engines", func(t *testing.T) {
		w := loaded(t, Options{CacheMB: 16})
		q := adhocFamily(4, 1)
		var first outcome
		for i, name := range []string{"cranelift", "gcc", "cranelift", "gcc"} {
			o := execSQL(t, w, Backend(name), q)
			if i == 0 {
				first = o
			}
			if o.hit != (i >= 2) || !reflect.DeepEqual(o.rows, first.rows) {
				t.Errorf("execution %d on %s: hit=%v, rows %v (first %v)", i, name, o.hit, o.rows, first.rows)
			}
		}
	})

	t.Run("trap-boundary", func(t *testing.T) {
		// Literals on the overflow and division-by-zero edges
		// (conformance's TestHoistTrapBoundaryCorpus): the variant that traps
		// and the one that does not share their code, so the second of each
		// pair is a code hit, and must trap, or not, exactly as without a
		// cache.
		const maxI64 = int64(^uint64(0) >> 1)
		x := func() plan.Expr { return &plan.Col{Idx: 0, Ty: qir.I64} }
		lit := func(v int64) plan.Expr { return &plan.ConstInt{Ty: qir.I64, V: v} }
		add := func(v int64) plan.Expr { return &plan.Arith{Op: plan.OpAdd, L: x(), R: lit(v)} }
		mul := func(v int64) plan.Expr { return &plan.Arith{Op: plan.OpMul, L: lit(v), R: x()} }
		div := func(v int64) plan.Expr {
			return &plan.Arith{Op: plan.OpDiv, L: lit(100), R: &plan.Arith{Op: plan.OpSub, L: x(), R: lit(v)}}
		}
		world := func(cacheMB int) *World {
			w := NewWorld(Options{MemMB: 16, CacheMB: cacheMB})
			tab := w.Cat.CreateTable("t", 16, rt.ColSpec{Name: "x", Type: qir.I64})
			for i := int64(0); i < 16; i++ {
				w.Cat.SetInt(tab.MustCol("x"), i, i)
			}
			return w
		}
		for _, name := range BackendNames() {
			cached, plain := world(16), world(0)
			engC, engP := Backend(name), Backend(name)
			for i, e := range []plan.Expr{
				add(maxI64 - 15), add(maxI64 - 8), add(maxI64 - 15), // runs, overflows at x=9, runs
				mul(maxI64/8 + 1), mul(1), // overflows at x=8, runs
				div(-1), div(7), div(16), // runs, divides by zero at x=7, runs
			} {
				node := func() plan.Node {
					return &plan.Project{Input: &plan.Scan{Table: "t", Cols: []plan.ColInfo{{Name: "x", Type: qir.I64}}},
						Exprs: []plan.Expr{e}}
				}
				got, want := execPlan(cached, engC, node()), execPlan(plain, engP, node())
				if !reflect.DeepEqual(got.rows, want.rows) || got.err != want.err {
					t.Errorf("%s, case %d (hit=%v): %d rows, err %q; without a cache %d rows, err %q",
						name, i, got.hit, len(got.rows), got.err, len(want.rows), want.err)
				}
				if wantHit := i != 0 && i != 3 && i != 5; got.code != wantHit {
					t.Errorf("%s, case %d: code hit=%v, want %v", name, i, got.code, wantHit)
				}
			}
		}
	})

	if obsProgramPinned.Load() == pinned0 {
		t.Error("no pinned mismatch was counted")
	}
}

// TestCodeReplacedUnderItsBindings: statements A and B generate the same
// code and differ in their kernels. A's code leaves the cache while A's
// shape entry stays, and B compiles the code again under the same code key:
// once because the LRU evicted A's code (charging it the whole budget evicts
// it and what is older, not the shape entry stored after it), once because a
// baked string moved and the code level declined B. A's shape then declines
// the new code, and A runs with its own kernels, bound to it. Rows are
// checked against an uncached world.
func TestCodeReplacedUnderItsBindings(t *testing.T) {
	const (
		a = "SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_quantity < 10"
		b = "SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_discount > 0.05"
	)
	for _, name := range []string{"directemit", "cranelift", "llvm-opt", "gcc"} {
		for _, how := range []string{"evicted", "declined"} {
			w, ref, eng := loaded(t, Options{CacheMB: 64, Batch: true}), loaded(t, Options{Batch: true}), Backend(name)
			step := func(what, q string, want func(p *Program) bool) *Program {
				t.Helper()
				declines := obsCodeDeclines.Load()
				p, _, err := w.PrepareSQL(eng, "q", q)
				if err != nil {
					t.Fatalf("%s, %s, %s: %v", name, how, what, err)
				}
				if !want(p) {
					t.Errorf("%s, %s, %s: program hit %v, code hit %v, %d code declines",
						name, how, what, p.Hit, p.CodeHit, obsCodeDeclines.Load()-declines)
				}
				if _, err := w.Run(p); err != nil {
					t.Fatalf("%s, %s, %s: %v", name, how, what, err)
				}
				got := w.DB.Out.Canonical()
				w.Release()
				if o := execSQL(t, ref, eng, q); !reflect.DeepEqual(got, o.rows) {
					t.Errorf("%s, %s, %s: rows %v, uncached %v", name, how, what, got, o.rows)
				}
				return p
			}
			compiled := func(p *Program) bool { return !p.Hit && !p.CodeHit }
			code := step("A compiles", a, compiled).code
			akey := string(w.skey)
			switch how {
			case "evicted":
				w.cache.ChargeProgram(code.key, code, int64(w.CacheMB)<<20)
				if _, ok := w.cache.GetProgram([]byte(code.key)); ok {
					t.Fatalf("%s: A's code was not evicted", name)
				}
				step("B compiles A's code again", b, compiled)
			case "declined":
				code.strs = append(code.strs, bakedString{s: "a string interned elsewhere"})
				d0 := obsCodeDeclines.Load()
				step("B compiles A's code again", b, func(p *Program) bool { return compiled(p) && obsCodeDeclines.Load() == d0+1 })
			}
			if _, ok := w.cache.GetProgram([]byte(akey)); !ok {
				t.Fatalf("%s, %s: A's shape entry left the cache", name, how)
			}
			step("A again", a, func(p *Program) bool { return p.CodeHit })
			step("A's variant", strings.Replace(a, "< 10", "< 20", 1), func(p *Program) bool { return p.Hit })
		}
	}
}

// TestProgramCacheBudget stores 2 000 distinct plan shapes in a 1 MiB cache:
// entries are evicted, what the cache charges stays inside the budget, and the
// Go heap the world holds on to stays within heapPerBudget times the budget:
// the charge (shapeEntry.footprint, codeEntry.footprint, Unit.Bytes) is an
// account of backing arrays, and the allocator's size classes and spans in
// use but not full, the units' relocation tables and the map and list nodes
// come on top (measured: 2.0 to 2.9 times).
//
// With batch kernels, shapes that differ in their filters only differ in
// their kernels, and their plans share code: four in a row share one code
// entry, and the next four another, of 186 output layouts in turn. A shape
// entry is charged for what it adds and the spans it keeps in use, and its
// code once, on its own; code the cache did not charge would grow the heap past
// the bound (measured: 3.1 to 3.5 times; the parent of the code level, which
// compiled every one of these statements, 2.5 to 2.8 times).
func TestProgramCacheBudget(t *testing.T) {
	const (
		budgetMB      = 1
		shapes        = 2000
		heapPerBudget = 4
	)
	cols := []string{"l_quantity", "l_discount", "l_tax", "l_extendedprice", "l_shipdate"}
	ops := []string{"<", "<=", ">", ">="}
	filter := func(i int) string {
		var preds []string
		for k := 0; k < 3; k++ {
			d := i % (len(cols) * len(ops))
			i /= len(cols) * len(ops)
			preds = append(preds, fmt.Sprintf("%s %s %d", cols[d%len(cols)], ops[d/len(cols)], 10+k))
		}
		return " FROM lineitem WHERE " + strings.Join(preds, " AND ")
	}
	tuple := func(i int) string { return "SELECT COUNT(*)" + filter(i) }
	aggs := []string{"COUNT(*)", "SUM(l_quantity)", "MIN(l_tax)", "MAX(l_shipdate)", "SUM(l_extendedprice)"}
	keys := []string{"", "l_returnflag", "l_linestatus", "l_shipmode", "l_returnflag, l_linestatus", "l_shipmode, l_returnflag"}
	shared := func(i int) string {
		layout := i / 4 % (31 * len(keys))
		var items []string
		for a := range aggs {
			if (1+layout%31)&(1<<a) != 0 {
				items = append(items, aggs[a])
			}
		}
		if k := keys[layout/31]; k != "" {
			return "SELECT " + k + ", " + strings.Join(items, ", ") + filter(i) + " GROUP BY " + k
		}
		return "SELECT " + strings.Join(items, ", ") + filter(i)
	}
	// An executable that is a vm module, one that is not, and one that grows
	// a second module while cached; and plans that share their code.
	for _, c := range []struct {
		name, engine string
		batch        bool
		shape        func(int) string
	}{{"directemit", "directemit", false, tuple}, {"interpreter", "interpreter", false, tuple},
		{"adaptive", "adaptive", false, tuple}, {"shared code", "directemit", true, shared}} {
		t.Run(c.name, func(t *testing.T) {
			w, eng := loaded(t, Options{CacheMB: budgetMB, Batch: c.batch}), Backend(c.engine)
			execSQL(t, w, eng, c.shape(0)) // everything lazily built exists before the baseline
			heap := func() runtime.MemStats {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms
			}
			evictions := obs.NewCounter("engine.program_cache_evictions") // counted in pcc
			before, evicted0 := heap(), evictions.Load()
			// Each statement the shape level does not serve stores a shape
			// entry, each code miss its code.
			storing := func() int64 { return obsShapeMisses.Load() + obsShapeDeclines.Load() + obsCodeMisses.Load() }
			stored0, codeHits0 := storing(), obsCodeHits.Load()
			for i := 0; i < shapes; i++ {
				if o := execSQL(t, w, eng, c.shape(i)); o.err != "" {
					t.Fatal(o.err)
				}
			}
			after, evicted := heap(), evictions.Load()-evicted0
			stored, codeHits := storing()-stored0, obsCodeHits.Load()-codeHits0
			cache := w.cache
			inuse, live := int64(after.HeapInuse)-int64(before.HeapInuse), int64(after.HeapAlloc)-int64(before.HeapAlloc)
			t.Logf("%d entries charged %d KiB; %d of %d entries evicted; %d code hits; heap in use grew %d KiB, live heap %d KiB",
				cache.Len(), cache.SizeBytes()>>10, evicted, stored, codeHits, inuse>>10, live>>10)
			if evicted == 0 || evicted >= stored {
				t.Errorf("%d of %d entries evicted", evicted, stored)
			}
			if cache.SizeBytes() > budgetMB<<20 {
				t.Errorf("cache charges %d bytes, budget %d", cache.SizeBytes(), budgetMB<<20)
			}
			if c.batch && codeHits < shapes/2 {
				t.Errorf("%d code hits over %d shapes, four in a row of one code", codeHits, shapes)
			}
			if inuse > heapPerBudget*budgetMB<<20 {
				t.Errorf("heap in use grew by %d bytes, more than %d times the %d MiB budget", inuse, heapPerBudget, budgetMB)
			}
			if !execSQL(t, w, eng, c.shape(shapes-1)).hit {
				t.Error("the most recent shape is no longer cached")
			}
			runtime.KeepAlive(w)
		})
	}
}

// TestProgramCacheChargeFollowsExec: an executable grows once it runs — the
// vm builds its fused view, the adaptive engine compiles a second module when
// it promotes — and after every execution the cache charges the entry what it
// holds then, not what it held when it was stored.
func TestProgramCacheChargeFollowsExec(t *testing.T) {
	for _, name := range []string{"directemit", "adaptive"} {
		w, eng := loaded(t, Options{CacheMB: 64}), Backend(name)
		q := adhocFamily(1, 0)
		p, _, err := w.PrepareSQL(eng, "q", q)
		if err != nil {
			t.Fatal(err)
		}
		cache, bind, code := w.cache, p.bind, p.code
		if bind == nil || bind.key == "" || code == nil || code.key == "" {
			t.Fatalf("%s: the compiled program was not cached at both levels", name)
		}
		// The shape entry and its code, which holds the executable.
		held := func() int64 { return bind.footprint() + code.footprint() }
		units := cache.SizeBytes() - held()
		stored := held()
		for i := 0; i < 2; i++ { // a compiled program's run, then a hit's
			if _, err := w.Run(p); err != nil {
				t.Fatal(err)
			}
			w.Release()
			if got := cache.SizeBytes() - units; got != held() {
				t.Errorf("%s, run %d: the entry is charged %d bytes and holds %d", name, i, got, held())
			}
			if p, _, err = w.PrepareSQL(eng, "q", q); err != nil || !p.Hit {
				t.Fatalf("%s: hit=%v err=%v", name, p.Hit, err)
			}
		}
		if name == "adaptive" && (p.Stats.Counters["tier_promotions"] == 0 || held() <= stored) {
			t.Errorf("adaptive: %d promotions, footprint %d stored and %d now; want a second module charged",
				p.Stats.Counters["tier_promotions"], stored, held())
		}
		t.Logf("%s: charged %d bytes when stored, %d after running", name, stored, held())
	}
}

// TestPrepareWithoutCache: with CacheMB 0 PrepareSQL is Parse + Lower +
// Compile.
func TestPrepareWithoutCache(t *testing.T) {
	w, eng := loaded(t, Options{}), Backend("cranelift")
	misses := obsShapeMisses.Load()
	for i := 0; i < 2; i++ {
		if o := execSQL(t, w, eng, adhocFamily(1, 0)); o.hit || o.err != "" {
			t.Errorf("execution %d: hit=%v err=%q", i, o.hit, o.err)
		}
	}
	if obsShapeMisses.Load() != misses {
		t.Error("a world without a cache counted shape-level misses")
	}
	var fp plan.Fingerprint
	if node, _ := w.Parse(adhocFamily(1, 0)); !fp.Write(node) || len(fp.Lits) != 5 {
		t.Errorf("q6 fingerprint lists %d literals, want 5", len(fp.Lits))
	}
}

// TestFootprintEstimate checks the one estimate in what the cache charges: a
// program is stored before it first runs, when its module's fused view does
// not exist yet and vm.Module.Footprint puts it at a fixed cost per decoded
// instruction. Over the TPC-H plans on every compiling engine the estimated
// footprint stays within 0.85 to 1.5 times the one reported once the view is
// built (measured: 0.94 to 1.04 per query; internal/vm holds the fused view's
// own share to ±50% over TPC-DS and va64 as well).
func TestFootprintEstimate(t *testing.T) {
	qs, err := Queries("tpch")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"directemit", "cranelift", "llvm-cheap", "llvm-opt", "gcc"} {
		w, eng := loaded(t, Options{}), Backend(name)
		for _, q := range qs {
			p, err := w.lowerCompile(eng, q.Name, q.Build())
			if err != nil {
				t.Fatal(err)
			}
			estimated := backend.FootprintOf(p.Exec)
			if _, err := w.Run(p); err != nil {
				t.Fatal(err)
			}
			w.Release()
			if r := float64(estimated) / float64(backend.FootprintOf(p.Exec)); r < 0.85 || r > 1.5 {
				t.Errorf("%s %s: footprint estimated at %.2f times what it is once fused", name, q.Name, r)
			}
		}
	}
}

// TestPrepareObservability: a hit is visible. With a tracer it is one
// "prepare" span with nothing under it and a prepare.hit count, where a miss
// is a "prepare" span around the compile spans; and the process-wide
// counters are in the Prometheus export next to the unit cache's.
func TestPrepareObservability(t *testing.T) {
	tr := obs.New(obs.Options{})
	w, eng := loaded(t, Options{CacheMB: 16, Tracer: tr}), Backend("cranelift")
	hits0, misses0 := obsShapeHits.Load(), obsShapeMisses.Load()
	for v := 0; v < 2; v++ {
		if o := execSQL(t, w, eng, adhocFamily(1, v)); o.err != "" || o.hit != (v == 1) {
			t.Fatalf("variant %d: hit=%v err=%q", v, o.hit, o.err)
		}
	}
	if h, m := obsShapeHits.Load()-hits0, obsShapeMisses.Load()-misses0; h != 1 || m != 1 {
		t.Errorf("counted %d hits and %d misses, want one of each", h, m)
	}
	snap := tr.Snapshot("test")
	var prepares []int
	children := map[int]int{}
	for i, sp := range snap.Spans {
		if sp.Name == "prepare" {
			prepares = append(prepares, i)
		}
		if sp.Parent >= 0 {
			children[int(sp.Parent)]++
		}
	}
	if len(prepares) != 2 || children[prepares[0]] == 0 || children[prepares[1]] != 0 {
		t.Errorf("prepare spans %v with %d and %d children, want the miss with its compile spans and the hit bare",
			prepares, children[prepares[0]], children[prepares[len(prepares)-1]])
	}
	if snap.Counters["prepare.hit"] != 1 {
		t.Errorf("prepare.hit = %d, want 1", snap.Counters["prepare.hit"])
	}
	var sb strings.Builder
	if err := obs.WriteGlobalPrometheus(&sb, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"engine.shape_cache_hits", "engine.shape_cache_misses", "pcc.cache_misses"} {
		if !strings.Contains(sb.String(), `event="`+name+`"`) {
			t.Errorf("Prometheus export lacks %s:\n%s", name, sb.String())
		}
	}
}

// TestAdhocStreamCounts replays a fixed stream in the style of the
// benchmark's sql_adhoc workload — four statements in five constant variants
// of the six families, the fifth a novel statement — through PrepareSQL on
// each of its engines, with batch kernels, and logs what the cache did:
// statement-shape hits, misses and declines, code hits and misses, unit
// misses, the analysis counters and the entries stored. As the benchmark's
// counting runs do, it counts after a prefix in which every family has
// compiled. It holds the counts the cache's design promises: no statement
// declines; a statement the shape level does not serve stores at most two
// entries, its shape and its code; at least half of them find their code
// already compiled; and the analysis, which sees the tables the code scans,
// proves every memory access of the counted statements safe.
func TestAdhocStreamCounts(t *testing.T) {
	const prefix, counted = 1000, 4000
	rng := rand.New(rand.NewSource(9))
	stream := make([]string, prefix+counted)
	for i := range stream {
		if rng.Intn(5) == 0 {
			stream[i] = novelStatement(rng)
		} else {
			stream[i] = adhocFamily(rng.Intn(adhocFamilies), rng.Intn(32))
		}
	}
	names := []string{"engine.shape_cache_hits", "engine.shape_cache_misses", "engine.shape_cache_declines",
		"engine.code_cache_hits", "engine.code_cache_misses", "pcc.cache_misses",
		"sa.functions_analyzed", "sa.checks_eliminated", "sa.mem_ops"}
	counters := make([]*obs.Counter, len(names))
	for i, name := range names {
		counters[i] = obs.NewCounter(name)
	}
	for _, name := range []string{"directemit", "cranelift", "llvm-opt", "gcc"} {
		w, eng := loaded(t, Options{CacheMB: 256, Batch: true}), Backend(name)
		run := func(stmts []string) {
			for _, q := range stmts {
				if o := execSQL(t, w, eng, q); o.err != "" {
					t.Fatalf("%s: %q: %s", name, q, o.err)
				}
			}
		}
		run(stream[:prefix])
		before := make([]int64, len(counters))
		for i, c := range counters {
			before[i] = c.Load()
		}
		_, units0 := w.cache.Counters()
		entries0 := w.cache.Len()
		run(stream[prefix:])
		d := map[string]int64{}
		var log []string
		for i, c := range counters {
			d[names[i]] = c.Load() - before[i]
			log = append(log, fmt.Sprintf("%s %d", names[i], d[names[i]]))
		}
		// Every unit miss stores a unit; the cache is large enough to evict
		// nothing, so what else it holds now the stream stored.
		_, units := w.cache.Counters()
		stored := int64(w.cache.Len()-entries0) - (units - units0)
		t.Logf("%s: %s, %d entries stored", name, strings.Join(log, ", "), stored)
		misses := d["engine.shape_cache_misses"]
		if d["engine.shape_cache_declines"] != 0 {
			t.Errorf("%s: %d shape-level declines, want 0", name, d["engine.shape_cache_declines"])
		}
		if stored > 2*misses {
			t.Errorf("%s: %d entries stored for %d shape misses, want at most two each", name, stored, misses)
		}
		if 2*d["engine.code_cache_hits"] < misses {
			t.Errorf("%s: %d code hits for %d shape misses, want at least half", name, d["engine.code_cache_hits"], misses)
		}
		if d["sa.checks_eliminated"] != d["sa.mem_ops"] || d["sa.mem_ops"] == 0 {
			t.Errorf("%s: %d of %d memory accesses proven safe, want all", name, d["sa.checks_eliminated"], d["sa.mem_ops"])
		}
	}
}
