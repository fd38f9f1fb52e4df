package main

import (
	"fmt"
	"time"

	qc "qcc"
	"qcc/internal/backend"
	"qcc/internal/backend/pcc"
	"qcc/internal/bench"
	"qcc/internal/codegen"
	"qcc/internal/plan"
	"qcc/internal/sql"
	"qcc/internal/vt"
)

// adhocEngines are the engines sql_adhoc opens a database for: their public
// names and their positions in bench.Engines(vt.VX64).
var adhocEngines = []struct {
	name string
	idx  int
}{{"directemit", 1}, {"cranelift", 2}, {"llvm-opt", 4}, {"gcc", 5}}

const (
	adhocCacheMB = 64
	// adhocMemMB sizes each database's machine: qc.Open's default.
	// qc.DB.Exec never releases vm heap between statements (about 100 KB
	// each at this scale factor) and exhausting the heap panics, so a run
	// stops at adhocMaxPerDB statements per database — far more than fit
	// in the measured time.
	adhocMemMB    = 256
	adhocMaxPerDB = 3000
	// adhocPrefix statements run before the clock starts, so that each
	// family's functions are already in the code cache: a first sighting is
	// a compile, and users of a long-lived database mostly see later ones.
	// Passes still get a little faster for about 1 000 statements more, as
	// novel shapes find functions earlier ones left in the cache.
	adhocPrefix = 1000
	// adhocBlock statements form one pass for the per-pass medians.
	adhocBlock = 400
)

// adhocWorld is what sql_adhoc runs against: one public-API database per
// engine, plus a reference copy of the same generated data that only the
// reference evaluator reads.
type adhocWorld struct {
	dbs    []*qc.DB
	ref    *bench.World
	gold   *golden
	expect map[string]digest // reference evaluator results by statement text
	loadS  float64
}

func newAdhocWorld() (*adhocWorld, error) {
	w := &adhocWorld{expect: map[string]digest{}}
	t0 := time.Now()
	for _, e := range adhocEngines {
		db, err := qc.Open(qc.WithEngine(e.name), qc.WithCacheMB(adhocCacheMB), qc.WithMemoryMB(adhocMemMB))
		if err != nil {
			return nil, err
		}
		if err := db.LoadTPCH(adhocSF); err != nil {
			return nil, err
		}
		w.dbs = append(w.dbs, db)
	}
	w.loadS = time.Since(t0).Seconds()
	var err error
	if w.ref, err = loadWorld(vt.VX64, 64, "tpch", adhocSF); err != nil {
		return nil, err
	}
	if w.gold, err = loadGolden("adhoc", adhocSF); err != nil {
		return nil, err
	}
	return w, nil
}

// check verifies one statement's rows against its golden digest and, where
// the statement has a shape, against the reference evaluator.
func (w *adhocWorld) check(st statement, rows [][]string) error {
	got := digestOf(canonicalRows(rows))
	if st.Key != "" {
		if err := w.gold.check(st.Key, got); err != nil {
			return err
		}
	}
	if st.Shape == nil {
		return nil
	}
	want, ok := w.expect[st.SQL]
	if !ok {
		lines, err := refEval(w.ref.Cat, *st.Shape)
		if err != nil {
			return err
		}
		want = digestOf(lines)
		w.expect[st.SQL] = want
	}
	if got != want {
		return fmt.Errorf("reference evaluator disagrees on %q: got %d rows, want %d", st.SQL, got.Rows, want.Rows)
	}
	return nil
}

// exec sends one statement through the public API. Compile time is the
// latency the caller saw minus the execution time the program reports.
func (w *adhocWorld) exec(slot int, st statement) (res *qc.Result, lat time.Duration, err error) {
	err = guard(func() error {
		t0 := time.Now()
		var err error
		res, err = w.dbs[slot].Exec(st.SQL)
		lat = time.Since(t0)
		return err
	})
	if err == nil {
		err = w.check(st, res.Rows)
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", adhocEngines[slot].name, err)
	}
	return res, lat, err
}

// addAdhoc adds one public-API statement to a tally, splitting its latency
// by the execution time the program reports.
func addAdhoc(t *tally, slot int, res *qc.Result, lat time.Duration, err error) {
	var exec time.Duration
	if res != nil {
		exec = res.Stats.ExecTime
	}
	t.add(slot, lat-exec, exec, err)
}

// runAdhoc runs sql_adhoc: a seeded statement stream issued round-robin
// across the four databases by one client, each statement sent when the
// previous one has returned. The databases fill up (adhocMaxPerDB) before a
// run's time does, so a run is a series of epochs: set up — fresh databases
// and the untimed prefix, which is one sample of setup_s — then timed blocks
// until the databases are full or the time is up. The stream runs on through
// the epochs.
func runAdhoc(cfg runConfig) (*result, error) {
	prefix, block := adhocPrefix, adhocBlock
	if cfg.Quick {
		prefix, block = 40, 100
	}
	var w *adhocWorld
	src := newStream(cfg.Seed)
	warm := newTally(len(adhocEngines))
	setup := func() error {
		w = nil
		var err error
		if w, err = newAdhocWorld(); err != nil {
			return err
		}
		warm.beginPass()
		for n := 0; n < prefix; n++ {
			res, lat, err := w.exec(n%len(w.dbs), src.next())
			addAdhoc(warm, n%len(w.dbs), res, lat, err)
		}
		return nil
	}

	t := newTally(len(adhocEngines))
	timedFor := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		timedFor /= 2 // and one epoch: the traced half has the same room
	}
	var setups, frontendUs []float64
	var spent time.Duration
	alloc0 := totalAllocMB()
	for epoch := 0; epoch == 0 || (spent < timedFor && !cfg.Trace); epoch++ {
		s, err := timeSetup(setup)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		start := time.Now()
		for issued := prefix; (len(t.passWall) == 0 || spent+time.Since(start) < timedFor) && issued+block <= adhocMaxPerDB*len(w.dbs); {
			t.beginPass()
			for n := 0; n < block; n, issued = n+1, issued+1 {
				slot := issued % len(w.dbs)
				res, lat, err := w.exec(slot, src.next())
				addAdhoc(t, slot, res, lat, err)
				if res != nil {
					frontendUs = append(frontendUs, float64(lat-res.Stats.CompileTime-res.Stats.ExecTime)/1e3)
				}
			}
		}
		spent += time.Since(start)
	}
	info := map[string]any{"sf": adhocSF, "passes": len(t.passWall), "samples": len(t.latency), "epochs": len(setups),
		"prefix": prefix, "engines": len(adhocEngines), "novel_share": novelShare, "zipf": zipfExponent}
	if !cfg.Trace {
		setupS, err := typicalSetup(cfg.setups(), setups, setup)
		if err != nil {
			return nil, err
		}
		res := newResult(info, warm, t)
		res.Metrics = t.endToEndMetrics(setupS)
		return res, nil
	}

	allocPerPass := (totalAllocMB() - alloc0) / float64(len(t.passWall))
	sd, err := newStaged(w)
	if err != nil {
		return nil, err
	}
	rec, L, stagedWarm, traced := newRecorder(), newLayers(), newTally(len(adhocEngines)), newTally(len(adhocEngines))
	stagedWarm.beginPass()
	for n := 0; n < prefix; n++ { // the staged driver's own caches warm up like the databases' did
		compile, exec, err := sd.op(n%len(sd.dbs), src.next(), nil, nil, false)
		stagedWarm.add(n%len(sd.dbs), compile, exec, err)
	}
	firstPassSpans := 0
	for start, issued := time.Now(), prefix; (len(traced.passWall) == 0 || time.Since(start) < timedFor) && issued+block <= adhocMaxPerDB*len(sd.dbs); issued += block {
		traced.beginPass()
		for n := 0; n < block; n++ {
			compile, exec, err := sd.op(n%len(sd.dbs), src.next(), rec, L, len(traced.passWall) == 1)
			traced.add(n%len(sd.dbs), compile, exec, err)
		}
		if firstPassSpans == 0 {
			firstPassSpans = len(rec.spans)
		}
	}
	res := newResult(info, warm, t, stagedWarm, traced)
	var cacheBytes int64
	for _, c := range sd.caches {
		cacheBytes += c.SizeBytes()
	}
	lineitem, _ := w.ref.Cat.Table("lineitem")
	extra := map[string]float64{
		"qc.exec_p50_ms":          percentile(t.latency, 50),
		"qc.exec_p95_ms":          percentile(t.latency, 95),
		"qc.exec_p99_ms":          percentile(t.latency, 99),
		"qc.frontend_us":          mean(frontendUs),
		"pcc.cache_bytes":         float64(cacheBytes),
		"bench.alloc_mb_per_pass": allocPerPass,
		"tpch.load_s":             w.loadS,
		"tpch.lineitem_rows":      float64(lineitem.Rows),
	}
	finishTrace(res, cfg, "sql_adhoc", rec, firstPassSpans, L, extra, t, traced)
	return res, nil
}

// staged is the traced pass's stand-in for qc.DB.Exec: the same calls with
// the same options as qc.run, made one stage at a time so that a span and
// the layer's counters can be read at each boundary. When the program gets a
// single staged query path, its stage hooks replace this.
type staged struct {
	world  *adhocWorld
	dbs    []*bench.World
	caches []*pcc.Cache
	va     *bench.World
	base   []backend.Engine
}

func newStaged(w *adhocWorld) (*staged, error) {
	s := &staged{world: w, base: bench.Engines(vt.VX64)}
	for range adhocEngines {
		m, err := loadWorld(vt.VX64, adhocMemMB, "tpch", adhocSF)
		if err != nil {
			return nil, err
		}
		s.dbs = append(s.dbs, m)
		s.caches = append(s.caches, pcc.NewCache(adhocCacheMB<<20))
	}
	var err error
	if s.va, err = loadWorld(vt.VA64, 64, "tpch", adhocSF); err != nil {
		return nil, err
	}
	s.va.DB.Checkpoint()
	return s, nil
}

// op runs one statement stage by stage on database slot.
func (s *staged) op(slot int, st statement, rec *recorder, L *layers, probeVA bool) (compile, exec time.Duration, err error) {
	m, ei := s.dbs[slot], adhocEngines[slot].idx
	var rows [][]string
	var genDur time.Duration
	err = guard(func() error {
		heap0 := m.DB.M.HeapMark()
		qs := rec.begin("query")
		defer rec.end(qs)

		t0 := time.Now()
		sp := rec.begin("sql.parse")
		node, err := sql.Parse(st.SQL, m.Cat)
		rec.end(sp)
		if err != nil {
			return err
		}
		t1 := time.Now()
		rounds0 := ctrHoistRounds.Load()
		sp = rec.begin("codegen.compile")
		c, err := codegen.Compile("q", node, m.Cat)
		rec.end(sp)
		if err != nil {
			return err
		}
		t2 := time.Now()
		genDur = t2.Sub(t1)
		rounds := ctrHoistRounds.Load() - rounds0
		backendSpan := rec.begin("backend.compile")
		eng := pcc.Wrap(s.base[ei], pcc.Config{Jobs: 1, Cache: s.caches[slot], VariantTag: codegen.CheckElimVersion})
		ex, stats, err := eng.Compile(c.Module, &backend.Env{DB: m.DB, Arch: vt.VX64})
		rec.end(backendSpan)
		if err != nil {
			return err
		}
		t3 := time.Now()
		compile = t3.Sub(t0)
		m.DB.ResetQueryState()
		sp = rec.begin("rt.bind_pool")
		err = m.DB.BindConstPool(c.Module.Pool)
		rec.end(sp)
		if err != nil {
			return err
		}
		bindDur := time.Since(t3)
		before := snapExec(m.DB.M)
		sp = rec.begin("exec.run")
		t4 := time.Now()
		err = codegen.Run(m.DB, m.Cat, c, ex.Call)
		exec = time.Since(t4)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin("rows.materialize")
		for _, row := range m.DB.Out.Rows {
			out := make([]string, len(row))
			for i, v := range row {
				out[i] = v.String()
			}
			rows = append(rows, out)
		}
		rec.end(sp)
		if L == nil {
			return nil
		}
		L.addDur("sql.parse_us", t1.Sub(t0), time.Microsecond)
		L.add("plan.nodes", float64(countNodes(node)))
		L.addDur("rt.bind_pool_us", bindDur, time.Microsecond)
		recordBackend(L, rec, ei, backendSpan, stats, t3.Sub(t2))
		hits, misses := stats.Counters["cache_hits"], stats.Counters["cache_misses"]
		L.add("pcc.hits", float64(hits))
		L.add("pcc.misses", float64(misses))
		if misses == 0 {
			L.addDur("pcc.hit_compile_us", t3.Sub(t2), time.Microsecond)
		} else {
			L.addDur("pcc.miss_compile_us", t3.Sub(t2), time.Microsecond)
		}
		before.record(L, ei, m.DB.M, ex, exec, false)
		L.add("rt.out_rows", float64(len(rows)))
		L.add("rt.heap_kb_per_query", float64(m.DB.M.HeapMark()-heap0)/1024)
		recordCodegen(L, c, rounds)
		return nil
	})
	if err == nil {
		err = s.world.check(st, rows)
	}
	if err != nil {
		return compile, exec, fmt.Errorf("staged %s: %w", adhocEngines[slot].name, err)
	}
	if L != nil {
		err = guard(func() error { return s.probes(slot, st, rec, L, genDur, probeVA) })
	}
	return compile, exec, err
}

// probes times what the staged path cannot see in one call: plan validation
// on its own, code generation at the lower option levels, and the portable
// engines compiling for va64.
func (s *staged) probes(slot int, st statement, rec *recorder, L *layers, genDur time.Duration, probeVA bool) error {
	m, ei := s.dbs[slot], adhocEngines[slot].idx
	parse := func(on *bench.World) plan.Node {
		node, err := sql.Parse(st.SQL, on.Cat)
		if err != nil {
			panic(err) // it parsed a moment ago
		}
		return node
	}
	node := parse(m)
	t0 := time.Now()
	if err := plan.Validate(node); err != nil {
		return err
	}
	d := time.Since(t0)
	rec.probe("plan.validate", t0, d)
	L.addDur("plan.build_us", d, time.Microsecond)
	full := codegen.Options{Elim: true, Hoist: true} // what codegen.Compile uses
	if err := probeCodegen(rec, L, "q", func() plan.Node { return parse(m) }, m.Cat, full, genDur); err != nil {
		return err
	}
	if !probeVA || !portable[ei] {
		return nil
	}
	return probeVA64(rec, L, ei, s.base[ei], s.va, "q", parse(s.va), full)
}
