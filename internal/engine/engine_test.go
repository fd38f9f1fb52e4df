package engine

import (
	"flag"
	"io"
	"reflect"
	"strconv"
	"testing"

	"qcc/internal/backend"
	"qcc/internal/obs"
	"qcc/internal/plan"
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
			"exec-jobs": "1", "batch": "false", "nobatch": "false", "cache-mb": "0"},
		"qtrace": {"arch": "vx64", "engine": "all", "sf": "0.01", "mem": "512", "runs": "1", "check": "false",
			"jobs": "1", "cache-mb": "0", "exec-jobs": "1", "batch": "false", "nobatch": "false"},
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
		if o.Arch != vt.VX64 || o.Batch {
			t.Errorf("%s: default options %+v", cmd, o)
		}
	}

	parse := func(cmd string, args ...string) (Options, error) {
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return ParseCommand(cmd, fs, args)
	}
	// Batch kernels default on with parallel execution; -batch and -nobatch
	// override either way.
	for _, c := range []struct {
		args  []string
		batch bool
	}{
		{[]string{"-exec-jobs", "4"}, true},
		{[]string{"-exec-jobs", "4", "-nobatch"}, false},
		{[]string{"-batch"}, true},
		{[]string{"-batch", "-nobatch"}, false},
	} {
		if o, err := parse("qtrace", c.args...); err != nil || o.Batch != c.batch {
			t.Errorf("qtrace %v: Batch = %v, want %v (err %v)", c.args, o.Batch, c.batch, err)
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
