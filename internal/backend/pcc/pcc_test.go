package pcc_test

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"qcc/internal/backend"
	"qcc/internal/backend/cbe"
	"qcc/internal/backend/clift"
	"qcc/internal/backend/direct"
	"qcc/internal/backend/lbe"
	"qcc/internal/backend/pcc"
	"qcc/internal/bench"
	"qcc/internal/codegen"
	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// codeOf reaches the linked machine-code image behind an Exec; every
// compiled back-end's exec exposes it.
func codeOf(t *testing.T, ex backend.Exec) []byte {
	t.Helper()
	mod := backend.ModuleOf(ex)
	if mod == nil {
		t.Fatalf("exec %T does not expose its linked module", ex)
	}
	return mod.Code
}

// funcEngines is the per-function-pipeline lineup the driver shards.
func funcEngines(arch vt.Arch) map[string]backend.Engine {
	es := map[string]backend.Engine{
		"clift":      clift.New(),
		"llvm-cheap": lbe.NewCheap(),
		"llvm-opt":   lbe.NewOpt(),
		"gcc":        cbe.New(),
	}
	if arch == vt.VX64 {
		es["direct"] = direct.New()
	}
	return es
}

func benchCfg(arch vt.Arch) bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Arch = arch
	cfg.SF = 0.01
	cfg.MemMB = 192
	return cfg
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestParallelMatchesSequential is the determinism differential: for every
// TPC-H query, every wired back-end, and both architectures, the parallel
// driver (jobs=4) must link byte-identical machine code to the plain
// sequential compile. Two identically-built worlds keep interned addresses
// comparable; the per-query checkpoint/reset mirrors the benchmark harness.
func TestParallelMatchesSequential(t *testing.T) {
	arches := []vt.Arch{vt.VX64, vt.VA64}
	if testing.Short() {
		arches = arches[:1]
	}
	for _, arch := range arches {
		engines := funcEngines(arch)
		names := make([]string, 0, len(engines))
		for n := range engines {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			eng := engines[name]
			t.Run(arch.String()+"/"+name, func(t *testing.T) {
				cfg := benchCfg(arch)
				seqW, err := bench.NewWorldLoaded(cfg, "tpch")
				if err != nil {
					t.Fatal(err)
				}
				parW, err := bench.NewWorldLoaded(cfg, "tpch")
				if err != nil {
					t.Fatal(err)
				}
				par := pcc.Wrap(eng, pcc.Config{Jobs: 4})
				seqW.DB.Checkpoint()
				parW.DB.Checkpoint()
				queries := bench.HQueries()
				if testing.Short() {
					queries = queries[:4]
				}
				for _, q := range queries {
					cs, err := codegen.Compile(q.Name, q.Build(), seqW.Cat)
					if err != nil {
						t.Fatal(err)
					}
					cp, err := codegen.Compile(q.Name, q.Build(), parW.Cat)
					if err != nil {
						t.Fatal(err)
					}
					exS, _, err := eng.Compile(cs.Module, &backend.Env{DB: seqW.DB, Arch: arch})
					if err != nil {
						t.Fatalf("%s sequential: %v", q.Name, err)
					}
					exP, _, err := par.Compile(cp.Module, &backend.Env{DB: parW.DB, Arch: arch})
					if err != nil {
						t.Fatalf("%s parallel: %v", q.Name, err)
					}
					sc, pc := codeOf(t, exS), codeOf(t, exP)
					if !bytes.Equal(sc, pc) {
						t.Fatalf("%s: parallel code differs from sequential (len %d vs %d, first diff at %#x)",
							q.Name, len(sc), len(pc), firstDiff(sc, pc))
					}
					seqW.DB.ResetToCheckpoint()
					parW.DB.ResetToCheckpoint()
				}
			})
		}
	}
}

// TestCacheDeterminism compiles a query three times against a cache whose
// budget forces eviction between compiles: cold, partially warm, and
// re-warmed code must be byte-identical to an uncached sequential compile,
// and the machine-code verifier summaries must agree exactly.
func TestCacheDeterminism(t *testing.T) {
	cfg := benchCfg(vt.VX64)
	refW, err := bench.NewWorldLoaded(cfg, "tpch")
	if err != nil {
		t.Fatal(err)
	}
	cacheW, err := bench.NewWorldLoaded(cfg, "tpch")
	if err != nil {
		t.Fatal(err)
	}
	eng := clift.New()
	q := bench.HQueries()[0]
	opts := backend.Options{Check: true}

	cRef, err := codegen.Compile(q.Name, q.Build(), refW.Cat)
	if err != nil {
		t.Fatal(err)
	}
	exRef, stRef, err := eng.Compile(cRef.Module, &backend.Env{DB: refW.DB, Arch: cfg.Arch, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	refCode := codeOf(t, exRef)

	// A ~1-byte budget keeps at most one unit resident, so every compile
	// round-trips through insert-and-evict.
	cache := pcc.NewCache(1)
	wrapped := pcc.Wrap(eng, pcc.Config{Jobs: 4, Cache: cache})
	cQ, err := codegen.Compile(q.Name, q.Build(), cacheW.Cat)
	if err != nil {
		t.Fatal(err)
	}
	env := func() *backend.Env { return &backend.Env{DB: cacheW.DB, Arch: cfg.Arch, Options: opts} }
	var codes [][]byte
	var sums [][]interface{}
	for round := 0; round < 3; round++ {
		ex, st, err := wrapped.Compile(cQ.Module, env())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		codes = append(codes, codeOf(t, ex))
		var s []interface{}
		for _, fs := range st.Summaries {
			s = append(s, fs)
		}
		sums = append(sums, s)
		if round == 0 && cache.Len() != 1 {
			t.Fatalf("tiny budget should evict down to one unit, Len=%d", cache.Len())
		}
	}
	for round, code := range codes {
		if !bytes.Equal(refCode, code) {
			t.Fatalf("round %d: cached code differs from uncached sequential (first diff %#x)",
				round, firstDiff(refCode, code))
		}
	}
	var refSums []interface{}
	for _, fs := range stRef.Summaries {
		refSums = append(refSums, fs)
	}
	for round, s := range sums {
		if !reflect.DeepEqual(refSums, s) {
			t.Fatalf("round %d: mcv summaries diverge from uncached compile", round)
		}
	}
	if hits, misses := cache.Counters(); hits+misses == 0 {
		t.Fatal("cache never consulted")
	}
}

// TestCacheWarmHits: recompiling the same module against a roomy cache must
// hit for every function and still link byte-identical code, with the hit
// and miss totals surfaced through the compile stats counters.
func TestCacheWarmHits(t *testing.T) {
	cfg := benchCfg(vt.VX64)
	w, err := bench.NewWorldLoaded(cfg, "tpch")
	if err != nil {
		t.Fatal(err)
	}
	cache := pcc.NewCache(64 << 20)
	wrapped := pcc.Wrap(clift.New(), pcc.Config{Jobs: 2, Cache: cache})
	q := bench.HQueries()[0]
	c, err := codegen.Compile(q.Name, q.Build(), w.Cat)
	if err != nil {
		t.Fatal(err)
	}
	env := func() *backend.Env { return &backend.Env{DB: w.DB, Arch: cfg.Arch} }
	ex1, st1, err := wrapped.Compile(c.Module, env())
	if err != nil {
		t.Fatal(err)
	}
	ex2, st2, err := wrapped.Compile(c.Module, env())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(c.Module.Funcs))
	if hits, misses := cache.Counters(); hits != n || misses != n {
		t.Fatalf("hits=%d misses=%d, want %d/%d (all-miss cold, all-hit warm)", hits, misses, n, n)
	}
	if st1.Counters["cache_misses"] != n || st1.Counters["cache_hits"] != 0 {
		t.Fatalf("cold-run stats counters wrong: %v", st1.Counters)
	}
	if st2.Counters["cache_hits"] != n || st2.Counters["cache_misses"] != 0 {
		t.Fatalf("warm-run stats counters wrong: %v", st2.Counters)
	}
	if !bytes.Equal(codeOf(t, ex1), codeOf(t, ex2)) {
		t.Fatal("warm-run code differs from cold-run code")
	}
}

// tinyWorld builds a one-table dataset for targeted cache probes.
func tinyWorld(arch vt.Arch) (*rt.DB, *rt.Catalog) {
	m := vm.New(vm.Config{Arch: arch, MemSize: 64 << 20})
	db := rt.NewDB(m)
	cat := rt.NewCatalog(db)
	tab := cat.CreateTable("t", 16, rt.ColSpec{Name: "x", Type: qir.I64})
	for i := int64(0); i < 16; i++ {
		cat.SetInt(tab.MustCol("x"), i, i)
	}
	return db, cat
}

// constSelect builds: SELECT x FROM t WHERE x > v. Two instances differ
// only in the literal v.
func constSelect(t *testing.T, v int64) plan.Node {
	t.Helper()
	pred, err := plan.NewCmp(plan.CmpGT,
		&plan.Col{Idx: 0, Ty: qir.I64}, &plan.ConstInt{Ty: qir.I64, V: v})
	if err != nil {
		t.Fatal(err)
	}
	return &plan.Select{
		Input: &plan.Scan{Table: "t", Cols: []plan.ColInfo{{Name: "x", Type: qir.I64}}},
		Pred:  pred,
	}
}

// TestCacheConstantSensitivity is the end-to-end cache-contract check
// around literal constants. With constant hoisting (the default), a
// constant-only change is the headline warm hit: the parameterized body is
// shared and the new literal is bound into the runtime constant pool, so
// the recompiled variant must hit for every function AND execute with the
// new value rather than the cached compile's. With hoisting disabled the
// literal is baked into the unit, and the old collision-resistance contract
// holds: a changed constant must miss rather than serve the stale unit.
func TestCacheConstantSensitivity(t *testing.T) {
	db, cat := tinyWorld(vt.VX64)
	cache := pcc.NewCache(64 << 20)
	wrapped := pcc.Wrap(clift.New(), pcc.Config{Jobs: 1, Cache: cache})
	run := func(name string, v int64, opts codegen.Options) (*backend.Stats, int) {
		t.Helper()
		// The same module name across calls: the only difference between
		// the compiles is the literal.
		c, err := codegen.CompileOpts(name, constSelect(t, v), cat, opts)
		if err != nil {
			t.Fatal(err)
		}
		ex, st, err := wrapped.Compile(c.Module, &backend.Env{DB: db, Arch: vt.VX64})
		if err != nil {
			t.Fatal(err)
		}
		if err := codegen.Run(db, cat, c, ex.Call); err != nil {
			t.Fatal(err)
		}
		return st, len(db.Out.DrainRows())
	}
	hoisted := codegen.Options{Elim: true, Hoist: true}
	cold, rows := run("q", 5, hoisted)
	if cold.Counters["cache_hits"] != 0 {
		t.Fatalf("cold compile hit: %v", cold.Counters)
	}
	if rows != 10 {
		t.Fatalf("x > 5 over 0..15 returned %d rows, want 10", rows)
	}
	warm, _ := run("q", 5, hoisted)
	if warm.Counters["cache_misses"] != 0 || warm.Counters["cache_hits"] == 0 {
		t.Fatalf("verbatim recompile should hit for every function: %v", warm.Counters)
	}
	changed, rows := run("q", 6, hoisted)
	if changed.Counters["cache_misses"] != 0 || changed.Counters["cache_hits"] == 0 {
		t.Fatalf("constant-only variant should hit the parameterized cache: %v", changed.Counters)
	}
	if rows != 9 {
		t.Fatalf("stale constant executed after cache hit: x > 6 returned %d rows, want 9", rows)
	}

	inline := codegen.Options{Elim: true}
	coldI, rows := run("qi", 5, inline)
	if coldI.Counters["cache_hits"] != 0 {
		t.Fatalf("inline cold compile hit: %v", coldI.Counters)
	}
	if rows != 10 {
		t.Fatalf("inline x > 5 returned %d rows, want 10", rows)
	}
	changedI, rows := run("qi", 6, inline)
	if changedI.Counters["cache_misses"] == 0 {
		t.Fatalf("inline constant change produced no miss — stale code served: %v", changedI.Counters)
	}
	if rows != 9 {
		t.Fatalf("inline x > 6 returned %d rows, want 9", rows)
	}
}

// TestCachePooledUnitEviction extends the eviction contract to pooled
// units: with a ~1-byte budget at most one unit survives between compiles,
// so every variant compile is forced back through the back-end for the
// evicted functions (misses > 0) — and whatever mix of hits and recompiles
// links must still execute with the variant's own constants. Eviction must
// never corrupt the bind-at-execute discipline.
func TestCachePooledUnitEviction(t *testing.T) {
	db, cat := tinyWorld(vt.VX64)
	cache := pcc.NewCache(1)
	wrapped := pcc.Wrap(clift.New(), pcc.Config{Jobs: 1, Cache: cache})
	hoisted := codegen.Options{Elim: true, Hoist: true}
	for i, want := range []struct {
		v, rows int64
	}{{5, 10}, {6, 9}, {7, 8}} {
		c, err := codegen.CompileOpts("q", constSelect(t, want.v), cat, hoisted)
		if err != nil {
			t.Fatal(err)
		}
		ex, st, err := wrapped.Compile(c.Module, &backend.Env{DB: db, Arch: vt.VX64})
		if err != nil {
			t.Fatal(err)
		}
		if st.Counters["cache_misses"] == 0 {
			t.Fatalf("round %d: tiny budget must evict and force recompiles, got %v", i, st.Counters)
		}
		if err := codegen.Run(db, cat, c, ex.Call); err != nil {
			t.Fatal(err)
		}
		if n := int64(len(db.Out.DrainRows())); n != want.rows {
			t.Fatalf("round %d: x > %d returned %d rows, want %d", i, want.v, n, want.rows)
		}
	}
	if cache.Len() > 1 {
		t.Fatalf("budget-1 cache retains %d units", cache.Len())
	}
}

// TestCacheStructuralSensitivity: hoisting parameterizes constants only —
// a structural change (comparison direction) under the same module name
// must miss rather than reuse the pooled body.
func TestCacheStructuralSensitivity(t *testing.T) {
	db, cat := tinyWorld(vt.VX64)
	cache := pcc.NewCache(64 << 20)
	wrapped := pcc.Wrap(clift.New(), pcc.Config{Jobs: 1, Cache: cache})
	hoisted := codegen.Options{Elim: true, Hoist: true}
	compile := func(op plan.CmpOp) *backend.Stats {
		t.Helper()
		pred, err := plan.NewCmp(op, &plan.Col{Idx: 0, Ty: qir.I64}, &plan.ConstInt{Ty: qir.I64, V: 5})
		if err != nil {
			t.Fatal(err)
		}
		node := &plan.Select{
			Input: &plan.Scan{Table: "t", Cols: []plan.ColInfo{{Name: "x", Type: qir.I64}}},
			Pred:  pred,
		}
		c, err := codegen.CompileOpts("q", node, cat, hoisted)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := wrapped.Compile(c.Module, &backend.Env{DB: db, Arch: vt.VX64})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	compile(plan.CmpGT)
	st := compile(plan.CmpGE)
	if st.Counters["cache_misses"] == 0 {
		t.Fatalf("structural change (GT→GE) served from cache: %v", st.Counters)
	}
}

// TestWrapTransparent: non-sharding engines pass through Wrap unchanged,
// and jobs<=0 defaults sanely.
func TestWrapTransparent(t *testing.T) {
	e := clift.New()
	w := pcc.Wrap(e, pcc.Config{Jobs: 4})
	if w.Name() != e.Name() {
		t.Fatalf("wrapper must keep the engine name, got %q", w.Name())
	}
	pe, ok := w.(*pcc.Engine)
	if !ok {
		t.Fatalf("expected *pcc.Engine, got %T", w)
	}
	if pe.Jobs() != 4 {
		t.Fatalf("Jobs=%d, want 4", pe.Jobs())
	}
}
