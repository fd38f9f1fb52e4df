package qc

import (
	"strings"
	"testing"
	"time"

	"qcc/internal/backend"
	"qcc/internal/obs"
)

// warmStatement is constant variant v of the q6- or the q3-shaped statement
// of the benchmark's sql_adhoc workload.
func warmStatement(shape string, v int) string {
	if shape == "q6" {
		return adhocStatement(1, v)
	}
	return adhocStatement(2, v)
}

var warmShapes = []string{"q6", "q3"}

func openWarm(tb testing.TB, engine string) *DB {
	tb.Helper()
	db, err := Open(WithEngine(engine), WithCacheMB(64), WithMemoryMB(128))
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.LoadTPCH(0.01); err != nil {
		tb.Fatal(err)
	}
	for _, shape := range warmShapes {
		if _, err := db.Exec(warmStatement(shape, 0)); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// warmAllocBudget caps the objects one Exec of a cached shape allocates: the
// shape key's scan, the literals' conversion, the constant pool, execution and
// the result. Since a statement of a cached shape is no longer parsed, the
// q6-shaped statement measures 56 on every engine (68 on the interpreter) and
// the q3-shaped one 216 (288); before, they measured 114 (126) and 272 (344),
// of which parsing was 86 and 118. The budgets are 25% above the
// interpreter's count.
var warmAllocBudget = map[string]float64{"q6": 85, "q3": 360}

// TestWarmHitIsFlat is the deterministic gate on the program cache's hit path
// that ci.sh runs: executing a constant variant of a shape the database has
// compiled parses nothing, runs no static analysis, hoists nothing, looks up
// no unit, fuses no module — the counters that a compile advances stand
// still, and the statement-shape level declines nothing — and stays inside a
// fixed allocation budget.
func TestWarmHitIsFlat(t *testing.T) {
	var watched []*obs.Counter
	for _, name := range []string{"sa.functions_analyzed", "sa.modules_analyzed", "hoist.candidates",
		"pcc.cache_hits", "pcc.cache_misses", "vm_fuse_modules", "vm_fuse_orig_instrs", "vm_fuse_micro_ops",
		"engine.shape_cache_misses", "sql.statements_parsed", "engine.shape_cache_declines"} {
		watched = append(watched, obs.NewCounter(name))
	}
	hits := obs.NewCounter("engine.shape_cache_hits")
	for _, engine := range Engines() {
		db := openWarm(t, engine)
		for _, shape := range warmShapes {
			before := make([]int64, len(watched))
			for i, c := range watched {
				before[i] = c.Load()
			}
			hits0 := hits.Load()
			for v := 1; v <= 8; v++ {
				res, err := db.Exec(warmStatement(shape, v))
				if err != nil {
					t.Fatal(err)
				}
				if s := res.Stats; !s.ProgramHit || s.CacheMisses != 0 || s.CacheHits != int64(s.Functions) || s.Functions == 0 {
					t.Errorf("%s %s v%d: stats %+v, want a program hit with every function a cache hit", engine, shape, v, s)
				}
			}
			for i, c := range watched {
				if engine == "adaptive" && strings.HasPrefix(c.Name(), "vm_fuse_") {
					continue // its optimizing tier compiles, and fuses, when a function turns hot
				}
				if d := c.Load() - before[i]; d != 0 {
					t.Errorf("%s %s: %s advanced by %d across eight warm hits", engine, shape, c.Name(), d)
				}
			}
			if d := hits.Load() - hits0; d != 8 {
				t.Errorf("%s %s: %d program hits counted, want 8", engine, shape, d)
			}
			v := 0
			allocs := testing.AllocsPerRun(20, func() {
				v++
				if _, err := db.Exec(warmStatement(shape, v%8)); err != nil {
					t.Fatal(err)
				}
			})
			// warmStatement's own Sprintf is in the count.
			t.Logf("%s %s: %.0f allocations per warm Exec (budget %.0f)", engine, shape, allocs, warmAllocBudget[shape])
			if allocs > warmAllocBudget[shape] {
				t.Errorf("%s %s: %.0f allocations per warm Exec, budget %.0f", engine, shape, allocs, warmAllocBudget[shape])
			}
		}
	}
}

// BenchmarkExecWarm times a statement whose shape the database has compiled,
// per engine and shape, along the two paths the code cache has:
//
//   - program: what Exec does. PrepareSQL binds the statement from its
//     cached shape and serves the program (stage "shape": the scan of the
//     text, the literals' conversion, the key and the constant pool), then
//     Run.
//   - units: what Exec did before the program cache, and still does for a
//     shape it has not seen whose functions it has. Parse, Lower, Compile
//     (every function a unit-cache hit, then link and load), the module's
//     decode-and-fuse — forced here so that it is timed apart from execution,
//     which otherwise pays it inside the first call — and Run.
//
// ns/op is the whole statement; the stages are reported as µs metrics. It
// regenerates the hit-path table in EXPERIMENTS.md:
//
//	go test -run '^$' -bench ExecWarm -benchtime 2000x -cpu 1 .
func BenchmarkExecWarm(b *testing.B) {
	for _, engine := range Engines() {
		for _, shape := range warmShapes {
			for _, path := range []string{"program", "units"} {
				b.Run(engine+"/"+shape+"/"+path, func(b *testing.B) {
					db := openWarm(b, engine)
					eng := db.engines[engine]
					w := db.w
					stage := map[string]time.Duration{}
					lap := func(name string, t0 time.Time) time.Time {
						now := time.Now()
						stage[name] += now.Sub(t0)
						return now
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						stmt := warmStatement(shape, 1+i%7)
						t0 := time.Now()
						if path == "program" {
							p, _, err := w.PrepareSQL(eng, "q", stmt)
							if err != nil || !p.Hit {
								b.Fatalf("hit=%v err=%v", p != nil && p.Hit, err)
							}
							t0 = lap("shape", t0)
							if _, err := w.Run(p); err != nil {
								b.Fatal(err)
							}
						} else {
							node, err := w.Parse(stmt)
							if err != nil {
								b.Fatal(err)
							}
							t0 = lap("parse", t0)
							c, err := w.Lower("q", node)
							if err != nil {
								b.Fatal(err)
							}
							t0 = lap("lower", t0)
							p, err := w.Compile(eng, c)
							if err != nil {
								b.Fatal(err)
							}
							t0 = lap("compile", t0)
							if m := backend.ModuleOf(p.Exec); m != nil {
								m.FuseStats()
							}
							t0 = lap("fuse", t0)
							if _, err := w.Run(p); err != nil {
								b.Fatal(err)
							}
						}
						lap("exec", t0)
						w.Release()
					}
					for name, d := range stage {
						b.ReportMetric(float64(d.Microseconds())/float64(b.N), name+"-µs")
					}
				})
			}
		}
	}
}
