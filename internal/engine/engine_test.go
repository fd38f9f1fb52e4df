package engine

import (
	"flag"
	"io"
	"reflect"
	"strconv"
	"testing"

	"qcc/internal/backend"
	"qcc/internal/codegen"
	"qcc/internal/obs"
	"qcc/internal/plan"
	"qcc/internal/rt"
	"qcc/internal/vt"
)

// testQueries are three TPC-H plans (scan-heavy aggregation, a three-way
// join, a filter-only scan) and two SQL statements whose string literals are
// hoisted into the constant pool — one inline-sized, one with a heap body.
func testQueries(t *testing.T, w *World) map[string]plan.Node {
	t.Helper()
	qs := map[string]plan.Node{}
	tpch, err := Queries("tpch")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"q1", "q3", "q6"} {
		q, err := Pick(tpch, name)
		if err != nil {
			t.Fatal(err)
		}
		qs[name] = q[0].Build()
	}
	for name, text := range map[string]string{
		"sql-short": "SELECT l_shipmode, COUNT(*) FROM lineitem WHERE l_shipmode = 'AIR' GROUP BY l_shipmode ORDER BY l_shipmode",
		"sql-long":  "SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderpriority = '1-URGENT' OR o_orderpriority = 'a priority nobody ever assigned' GROUP BY o_orderpriority ORDER BY o_orderpriority",
	} {
		node, err := w.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		qs[name] = node
	}
	return qs
}

func loaded(t *testing.T, o Options) *World {
	t.Helper()
	return loadedAt(t, o, 0.01)
}

// loadedAt is a 64 MiB world with TPC-H loaded at scale factor sf.
func loadedAt(t *testing.T, o Options, sf float64) *World {
	t.Helper()
	o.MemMB = 64
	w := NewWorld(o)
	if err := w.Load("tpch", sf); err != nil {
		t.Fatal(err)
	}
	return w
}

// populated says which of the stats a compilation filled in.
func populated(s *backend.Stats) [4]bool {
	return [4]bool{s.Total > 0, s.Funcs > 0, s.CodeBytes > 0, len(s.Phases) > 0}
}

// TestStagesAcrossModes drives Parse → Lower → Compile → Run → Release for
// every back-end under every execution mode, with and without the code
// cache, and running one compiled program twice. Rows and the populated
// stats fields must equal the back-end's sequential, tuple-at-a-time,
// uncached reference, and every Release must leave the heap at the mark.
func TestStagesAcrossModes(t *testing.T) {
	modes := []struct {
		name     string
		execJobs int
		batch    bool
	}{{"tuple", 1, false}, {"batch", 1, true}, {"batch+2workers", 2, true}}

	// One reference for all back-ends: they must agree with each other too.
	refWorld := loaded(t, Options{})
	wantRows := map[string][]string{}
	for name, node := range testQueries(t, refWorld) {
		c, err := refWorld.Lower(name, node)
		if err != nil {
			t.Fatal(err)
		}
		p, err := refWorld.Compile(Backend("interpreter"), c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := refWorld.Run(p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantRows[name] = refWorld.DB.Out.Ordered()
		refWorld.Release()
	}

	for _, engName := range []string{"interpreter", "directemit", "cranelift", "llvm-opt", "gcc", "adaptive"} {
		wantStats := map[string][4]bool{}
		for _, mode := range modes {
			for _, cacheMB := range []int{0, 16} {
				name := engName + "/" + mode.name + "/cache" + strconv.Itoa(cacheMB)
				t.Run(name, func(t *testing.T) {
					w := loaded(t, Options{ExecJobs: mode.execJobs, Batch: mode.batch, CacheMB: cacheMB})
					eng := Backend(engName)
					_, cacheable := eng.(backend.FuncEngine)
					workers := obs.NewCounter("exec_workers")
					workersBefore, onVM := workers.Load(), false
					for qname, node := range testQueries(t, w) {
						// Two compilations (the second all cache hits),
						// each program run twice.
						for round := 0; round < 2; round++ {
							c, err := w.Lower(qname, node)
							if err != nil {
								t.Fatalf("%s: lower: %v", qname, err)
							}
							p, err := w.Compile(eng, c)
							if err != nil {
								t.Fatalf("%s: compile: %v", qname, err)
							}
							onVM = backend.ModuleOf(p.Exec) != nil
							for run := 0; run < 2; run++ {
								if _, err := w.Run(p); err != nil {
									t.Fatalf("%s round %d run %d: %v", qname, round, run, err)
								}
								if got := w.DB.Out.Ordered(); !reflect.DeepEqual(got, wantRows[qname]) {
									t.Errorf("%s round %d run %d: rows %v, want %v", qname, round, run, got, wantRows[qname])
								}
								w.Release()
								if got := w.DB.M.HeapMark(); got != w.mark {
									t.Errorf("%s round %d run %d: heap at %d after release, mark %d", qname, round, run, got, w.mark)
								}
							}
							got := populated(p.Stats)
							if mode.name == "tuple" && cacheMB == 0 && round == 0 {
								wantStats[qname] = got
							} else if got != wantStats[qname] {
								t.Errorf("%s round %d: populated stats %v, reference %v", qname, round, got, wantStats[qname])
							}
							hits, misses := p.Stats.Counters["cache_hits"], p.Stats.Counters["cache_misses"]
							switch {
							case cacheMB == 0 || !cacheable:
								if hits+misses != 0 {
									t.Errorf("%s: %d cache lookups without a cache", qname, hits+misses)
								}
							case round == 1 && (hits != int64(p.Stats.Funcs) || misses != 0):
								t.Errorf("%s: recompilation hit %d of %d functions (%d misses)", qname, hits, p.Stats.Funcs, misses)
							}
						}
					}
					if ran := workers.Load() > workersBefore; ran != (mode.execJobs > 1 && onVM) {
						t.Errorf("executor workers ran = %v with %d exec jobs (vm module: %v)", ran, mode.execJobs, onVM)
					}
				})
			}
		}
	}
}

// TestRunBuildsOnePool: the executor's worker pool is carved once per
// database, below the heap mark, however many programs run.
func TestRunBuildsOnePool(t *testing.T) {
	w := loaded(t, Options{ExecJobs: 2, Batch: true})
	var heap uint64
	for i := 0; i < 3; i++ {
		for name, node := range testQueries(t, w) {
			c, err := w.Lower(name, node)
			if err != nil {
				t.Fatal(err)
			}
			p, err := w.Compile(Backend("cranelift"), c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Measure(p); err != nil {
				t.Fatal(err)
			}
		}
		if i == 0 {
			heap = w.DB.M.HeapUsed()
		} else if got := w.DB.M.HeapUsed(); got != heap {
			t.Fatalf("pass %d: heap %d, %d after the first pass", i, got, heap)
		}
	}
	if w.execPool == nil || w.execPool.Jobs() != 2 {
		t.Fatalf("pool = %v, want 2 persistent workers", w.execPool)
	}
}

// TestArenasThatDoNotFit: a query asked for four workers on a machine whose
// heap cannot hold four worker arenas runs on one — through a World whose
// persistent pool could not be built, and through RunParallel with no pool,
// whose pool for the run must also leave room for the state block. The rows
// equal the sequential reference, no worker runs and nothing traps. With
// just enough room the same run fans out.
func TestArenasThatDoNotFit(t *testing.T) {
	const jobs, arena = 4, 4 << 20 // the default ArenaMB
	eng := Backend("directemit")
	ref := loaded(t, Options{Batch: true})
	c, err := ref.Lower("q1", testQueries(t, ref)["q1"])
	if err != nil {
		t.Fatal(err)
	}
	p, err := ref.Compile(eng, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(p); err != nil {
		t.Fatal(err)
	}
	want := ref.DB.Out.Ordered()
	ref.Release()

	align8 := func(n int64) uint64 { return (uint64(n) + 7) &^ 7 }
	workers := obs.NewCounter("exec_workers")
	for _, tc := range []struct {
		name    string
		world   bool
		short   uint64 // bytes below the room the arenas need
		fansOut bool
	}{
		{"world/short", true, 8, false},
		{"world/fits", true, 0, true},
		{"runparallel/short", false, 8, false},
		{"runparallel/fits", false, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := loaded(t, Options{ExecJobs: jobs, Batch: true})
			c, err := w.Lower("q1", testQueries(t, w)["q1"])
			if err != nil {
				t.Fatal(err)
			}
			p, err := w.Compile(eng, c)
			if err != nil {
				t.Fatal(err)
			}
			// The World carves its pool before the run allocates anything;
			// RunParallel carves a pool for the run after the state block,
			// and keeps room for one more.
			room := uint64(jobs*arena + 1<<20)
			if !tc.world {
				room += 2 * align8(c.StateSize)
				if err := w.DB.BindConstPool(p.Pool); err != nil {
					t.Fatal(err)
				}
			}
			m := w.DB.M
			m.Alloc(m.HeapRoom() - room + tc.short)
			before := workers.Load()
			if tc.world {
				_, err = w.Run(p)
			} else {
				err = codegen.RunParallel(w.DB, w.Cat, c, p.Exec.Call,
					codegen.ExecOptions{Jobs: jobs, Module: backend.ModuleOf(p.Exec)})
			}
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got := w.DB.Out.Ordered(); !reflect.DeepEqual(got, want) {
				t.Errorf("rows %v, want %v", got, want)
			}
			if ran := workers.Load() > before; ran != tc.fansOut {
				t.Errorf("workers ran = %v, want %v", ran, tc.fansOut)
			}
		})
	}
}

// TestRunRebindsEarlierProgram: a program stays runnable after later
// compilations replaced the machine's runtime-call table.
func TestRunRebindsEarlierProgram(t *testing.T) {
	w := loaded(t, Options{})
	eng := Backend("cranelift")
	var progs []*Program
	var want [][]string
	for _, name := range []string{"q1", "sql-long", "q3"} {
		c, err := w.Lower(name, testQueries(t, w)[name])
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Compile(eng, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(p); err != nil {
			t.Fatal(err)
		}
		progs, want = append(progs, p), append(want, w.DB.Out.Ordered())
		w.Release()
	}
	for i, p := range progs {
		if _, err := w.Run(p); err != nil {
			t.Fatalf("%s: %v", p.Compiled.Module.Name, err)
		}
		if got := w.DB.Out.Ordered(); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: rows %v, want %v", p.Compiled.Module.Name, got, want[i])
		}
		w.Release()
	}
}

// TestCommandFlags pins, for every command, the option flags it registers
// and their defaults — the command-line surface must not drift when the
// options struct changes.
func TestCommandFlags(t *testing.T) {
	want := map[string]map[string]string{
		"qrun": {"engine": "adaptive", "sf": "0.05", "arch": "vx64", "mem": "512",
			"exec-jobs": "1", "batch": "true", "cache-mb": "0"},
		"qtrace": {"arch": "vx64", "engine": "all", "sf": "0.01", "mem": "512", "runs": "1", "check": "false",
			"jobs": "1", "cache-mb": "0", "exec-jobs": "1", "batch": "false"},
		"qprof": {"arch": "vx64", "engine": "", "sf": "0.01", "mem": "512", "runs": "1", "check": "false",
			"jobs": "1"},
		"qverify": {"arch": "vx64", "sf": "0.01", "mem": "512", "jobs": "1"},
		"qlint":   {"arch": "vx64", "sf": "0.01", "mem": "512"},
		"qir":     {"sf": "0.01", "engine": "directemit"},
		"qbench":  {"arch": "vx64", "sf": "0.05", "runs": "1", "mem": "1024", "check": "false"},
	}
	if len(commands) != len(want) {
		t.Fatalf("%d commands registered, %d expected", len(commands), len(want))
	}
	for cmd, flags := range want {
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := ParseCommand(cmd, fs, nil)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if !reflect.DeepEqual(got, flags) {
			t.Errorf("%s flags = %v, want %v", cmd, got, flags)
		}
		// qrun runs queries as qc.Open does; the other commands measure
		// or inspect generated code, so they default to tuple-at-a-time.
		if o.Arch != vt.VX64 || o.Batch != (cmd == "qrun") {
			t.Errorf("%s: default options %+v", cmd, o)
		}
	}

	parse := func(cmd string, args ...string) (Options, error) {
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return ParseCommand(cmd, fs, args)
	}
	// -batch is the one switch: each command keeps its default, whatever
	// the worker count, and -batch or -batch=false overrides it.
	for _, c := range []struct {
		cmd   string
		args  []string
		batch bool
	}{
		{"qtrace", []string{"-exec-jobs", "4"}, false},
		{"qtrace", []string{"-exec-jobs", "4", "-batch"}, true},
		{"qtrace", []string{"-batch"}, true},
		{"qtrace", []string{"-batch=false"}, false},
		{"qrun", []string{"-exec-jobs", "4"}, true},
		{"qrun", []string{"-batch=false"}, false},
		{"qrun", []string{"-exec-jobs", "4", "-batch=false"}, false},
		{"qrun", []string{"-batch"}, true},
	} {
		if o, err := parse(c.cmd, c.args...); err != nil || o.Batch != c.batch {
			t.Errorf("%s %v: Batch = %v, want %v (err %v)", c.cmd, c.args, o.Batch, c.batch, err)
		}
	}
	// qbench measures the paper's configuration and has no flag that leaves
	// it: sequential compilation, no cache, tuple-at-a-time on one worker.
	o, err := parse("qbench", "-arch", "va64", "-mem", "96", "-check")
	if err != nil || o.Arch != vt.VA64 || o.MemMB != 96 || !o.Check ||
		o.Jobs != 1 || o.CacheMB != 0 || o.ExecJobs != 1 || o.Batch {
		t.Errorf("parsed options %+v (err %v)", o, err)
	}
	for _, args := range [][]string{{"-arch", "mips"}, {"-jobs", "4"}, {"-cache-mb", "16"},
		{"-exec-jobs", "4"}, {"-batch"}} {
		if _, err := parse("qbench", args...); err == nil {
			t.Errorf("qbench %v accepted", args)
		}
	}
}

// TestBatchDeepExpressions: a filter of 300 conjuncts, an aggregate
// argument 80 terms deep and one whose CASE sits at the deepest level a
// kernel node may have return the tuple-at-a-time rows in batch mode. The
// conjuncts become one kernel filter each, so that pipeline still runs as a
// kernel; the arguments are deeper than a kernel spec may be (the CASE's
// condition and branches one and two levels below it), so their pipelines
// stay tuple code.
func TestBatchDeepExpressions(t *testing.T) {
	conj := "SELECT COUNT(*) FROM lineitem WHERE l_quantity <> 1"
	sum := "SELECT SUM(l_extendedprice"
	caseSum := "SELECT SUM(CASE WHEN l_quantity < 5 THEN l_extendedprice ELSE l_tax END"
	for i := 1; i < 300; i++ {
		conj += " AND l_orderkey <> " + strconv.Itoa(1000000+i)
	}
	for i := 1; i < 80; i++ {
		sum += " + l_extendedprice"
	}
	for i := 0; i < rt.BatchMaxDepth; i++ {
		caseSum += " + l_extendedprice"
	}
	sum += ") FROM lineitem"
	caseSum += ") FROM lineitem"
	batch, tuple := loaded(t, Options{Batch: true}), loaded(t, Options{})
	kernelCalls := obs.NewCounter("rt_batch_kernel_calls")
	for _, c := range []struct {
		q      string
		kernel bool
	}{{conj, true}, {sum, false}, {caseSum, false}} {
		calls0 := kernelCalls.Load()
		got, want := execSQL(t, batch, Backend("directemit"), c.q), execSQL(t, tuple, Backend("directemit"), c.q)
		if got.err != "" || !reflect.DeepEqual(got.rows, want.rows) || got.err != want.err {
			t.Errorf("%.60s...: %v (err %q), want %v (err %q)", c.q, got.rows, got.err, want.rows, want.err)
		}
		if ran := kernelCalls.Load() != calls0; ran != c.kernel {
			t.Errorf("%.60s...: a kernel ran: %v, want %v", c.q, ran, c.kernel)
		}
	}
}
