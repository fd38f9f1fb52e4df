package engine

import (
	"math"
	"reflect"
	"testing"

	"qcc/internal/backend"
	"qcc/internal/codegen"
	"qcc/internal/obs"
	"qcc/internal/plan"
	"qcc/internal/tpch"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// What batch kernels, the morsel-parallel executor, the unit cache under
// constant hoisting and the profiler's sampler are for, stated on counters:
// vm instruction counts, rows, and the executor's and the cache's own event
// counts. All of them are functions of the code and the data alone, so the
// assertions are exact or one-sided with the measured value beside the bound,
// and no test here reads a clock: a ratio of durations fails on unchanged code.

// compilingEngines is every back-end of the target that produces a vm module.
func compilingEngines(arch vt.Arch) []backend.Engine {
	return Backends(arch)[1:] // [0] is the interpreter
}

// counted is one execution: its rows and what the machine counted for it.
type counted struct {
	rows                       []string
	executed, branches, memOps int64
}

func runCounted(t *testing.T, w *World, p *Program) counted {
	t.Helper()
	m := w.DB.M
	c := counted{executed: -m.Executed, branches: -m.Branches, memOps: -m.MemOps}
	_, err := w.Run(p)
	c.rows = w.DB.Out.Canonical()
	w.Release()
	if err != nil {
		t.Fatalf("%s: run: %v", p.Compiled.Module.Name, err)
	}
	c.executed += m.Executed
	c.branches += m.Branches
	c.memOps += m.MemOps
	return c
}

func lowerCompile(t *testing.T, w *World, eng backend.Engine, q Query) *Program {
	t.Helper()
	p, err := w.lowerCompile(eng, q.Name, q.Build())
	if err != nil {
		t.Fatalf("%s/%s: %v", eng.Name(), q.Name, err)
	}
	return p
}

// TestCountersBatchMorsel: TPC-H at sf 0.02 on every compiling engine. Batch
// kernels never cost vm instructions — single-worker batch execution runs at
// most the tuple path's count on all 22 queries — and on q1 and q6, each one
// wholly batch-eligible scan of lineitem, the kernels see every lineitem row
// exactly once, the executor hands ⌈rows ÷ 256⌉ morsels to its four workers,
// and the instruction count drops at least 50-fold (measured 180× to 1 350×,
// per engine and query) with identical rows.
func TestCountersBatchMorsel(t *testing.T) {
	const sf, jobs, morsel = 0.02, 4, 256 // autoMorsel's floor; 16 slices of 1 200 rows would be smaller
	tuple := loadedAt(t, Options{}, sf)
	batch := loadedAt(t, Options{Batch: true}, sf)
	par := loadedAt(t, Options{Batch: true, ExecJobs: jobs}, sf)
	li, err := tuple.Cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	batchRows, workers, morsels := obs.NewCounter("rt_batch_rows"), obs.NewCounter("exec_workers"), obs.NewCounter("exec_morsels")
	qs, err := Queries("tpch")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range compilingEngines(vt.VX64) {
		for _, q := range qs {
			name := eng.Name() + "/" + q.Name
			ref := runCounted(t, tuple, lowerCompile(t, tuple, eng, q))
			rows0 := batchRows.Load()
			got := runCounted(t, batch, lowerCompile(t, batch, eng, q))
			kernelRows := batchRows.Load() - rows0
			if !reflect.DeepEqual(got.rows, ref.rows) {
				t.Errorf("%s: batch rows differ from tuple rows", name)
			}
			if got.executed > ref.executed {
				t.Errorf("%s: batch execution ran %d vm instructions, tuple %d", name, got.executed, ref.executed)
			}
			if q.Name != "q1" && q.Name != "q6" {
				continue
			}
			if kernelRows != li.Rows {
				t.Errorf("%s: batch kernels saw %d rows, lineitem has %d", name, kernelRows, li.Rows)
			}
			if got.executed*50 > ref.executed {
				t.Errorf("%s: batch execution ran %d vm instructions, more than 1/50 of the tuple path's %d",
					name, got.executed, ref.executed)
			}
			rows0, workers0, morsels0 := batchRows.Load(), workers.Load(), morsels.Load()
			pgot := runCounted(t, par, lowerCompile(t, par, eng, q))
			if !reflect.DeepEqual(pgot.rows, ref.rows) {
				t.Errorf("%s: rows at %d workers differ from tuple rows", name, jobs)
			}
			if n := batchRows.Load() - rows0; n != li.Rows {
				t.Errorf("%s: at %d workers batch kernels saw %d rows, lineitem has %d", name, jobs, n, li.Rows)
			}
			if n := workers.Load() - workers0; n != jobs {
				t.Errorf("%s: %d workers ran, want %d", name, n, jobs)
			}
			if n, want := morsels.Load()-morsels0, (li.Rows+morsel-1)/morsel; n != want {
				t.Errorf("%s: %d morsels for %d rows, want %d", name, n, li.Rows, want)
			}
			t.Logf("%s: tuple %d, batch %d (%.0fx), %d workers %d", name, ref.executed, got.executed,
				float64(ref.executed)/float64(got.executed), jobs, pgot.executed)
		}
	}
}

// TestCountersPlanCache: the four parameterized TPC-H families on every
// compiling engine with a code cache. Constant hoisting makes every constant
// variant of a family the same code, so after the first variant has compiled,
// each of the next seven finds all its functions in the unit cache and misses
// none. What hoisting costs at run time is the pool load in place of an
// immediate: pooled ÷ inline vm instructions, geomean over the families, stays
// within 3% on every engine (measured 0.971, LLVM cheap, to 1.009, LLVM
// optimized, and 0.993 over all five; the worst single cell is LLVM
// optimized/q6 at 1.029).
func TestCountersPlanCache(t *testing.T) {
	const variants = 8
	for _, eng := range compilingEngines(vt.VX64) {
		w := loadedAt(t, Options{CacheMB: 16}, 0.02)
		logRatio := 0.0
		families := tpch.ParamQueries()
		for _, f := range families {
			name := eng.Name() + "/" + f.Name
			var pooled counted
			for v := 0; v < variants; v++ {
				p, err := w.lowerCompile(eng, f.Name, f.Build(v))
				if err != nil {
					t.Fatalf("%s variant %d: %v", name, v, err)
				}
				hits, misses := p.Stats.Counters["cache_hits"], p.Stats.Counters["cache_misses"]
				switch {
				case v == 0 && (hits != 0 || misses != int64(p.Stats.Funcs)):
					t.Errorf("%s: first variant hit %d and missed %d of %d functions", name, hits, misses, p.Stats.Funcs)
				case v > 0 && (misses != 0 || hits != int64(p.Stats.Funcs)):
					t.Errorf("%s variant %d: hit %d and missed %d of %d functions", name, v, hits, misses, p.Stats.Funcs)
				}
				r := runCounted(t, w, p)
				if v == 0 {
					pooled = r
				}
			}
			opts := w.Codegen()
			opts.Hoist = false
			c, err := codegen.CompileOpts(f.Name, f.Build(0), w.Cat, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p, err := w.Compile(eng, c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			inline := runCounted(t, w, p)
			if !reflect.DeepEqual(pooled.rows, inline.rows) {
				t.Errorf("%s: pooled rows differ from inline rows", name)
			}
			logRatio += math.Log(float64(pooled.executed) / float64(inline.executed))
		}
		g := math.Exp(logRatio / float64(len(families)))
		t.Logf("%s: pooled ÷ inline vm instructions, geomean %.3f", eng.Name(), g)
		if g > 1.03 {
			t.Errorf("%s: pooled bodies run %.3f times the inline bodies' vm instructions (geomean), limit 1.03", eng.Name(), g)
		}
	}
}

// TestCountersPlanCacheBatch is TestCountersPlanCache's unit-cache half with
// batch kernels: a kernel program reads its literals from the constant pool,
// so after the first variant of a family each of the next seven again finds
// all its functions in the unit cache and misses none, and its rows are the
// tuple-at-a-time rows.
func TestCountersPlanCacheBatch(t *testing.T) {
	const variants = 8
	kernelCalls := obs.NewCounter("rt_batch_kernel_calls")
	for _, eng := range compilingEngines(vt.VX64) {
		w := loadedAt(t, Options{CacheMB: 16, Batch: true}, 0.02)
		tuple := loadedAt(t, Options{}, 0.02)
		calls0 := kernelCalls.Load()
		for _, f := range tpch.ParamQueries() {
			name := eng.Name() + "/" + f.Name
			for v := 0; v < variants; v++ {
				p, err := w.lowerCompile(eng, f.Name, f.Build(v))
				if err != nil {
					t.Fatalf("%s variant %d: %v", name, v, err)
				}
				hits, misses := p.Stats.Counters["cache_hits"], p.Stats.Counters["cache_misses"]
				switch {
				case v == 0 && (hits != 0 || misses != int64(p.Stats.Funcs)):
					t.Errorf("%s: first variant hit %d and missed %d of %d functions", name, hits, misses, p.Stats.Funcs)
				case v > 0 && (misses != 0 || hits != int64(p.Stats.Funcs)):
					t.Errorf("%s variant %d: hit %d and missed %d of %d functions", name, v, hits, misses, p.Stats.Funcs)
				}
				got := runCounted(t, w, p)
				want := runCounted(t, tuple, lowerCompile(t, tuple, eng, Query{Name: f.Name, Build: func() plan.Node { return f.Build(v) }}))
				if !reflect.DeepEqual(got.rows, want.rows) {
					t.Errorf("%s variant %d: batch rows differ from tuple rows", name, v)
				}
			}
		}
		if kernelCalls.Load() == calls0 {
			t.Errorf("%s: no batch kernel ran", eng.Name())
		}
	}
}

// TestCountersSampler: q1 and q6 on every compiling engine of both targets,
// run without a sampler and with one. The sampler only observes: rows and
// the machine's three counters are identical. How many samples it takes is
// fixed by the period P and the executed count E (sampler.go): the machine
// looks at the sampler at branch checkpoints only, takes a sample at the
// first checkpoint at which at least P instructions have executed since the
// previous sample (since SetSampler, for the first) and re-arms from there.
// Samples are therefore at least P apart, Samples·P ≤ E, and, with no two
// checkpoints more than G instructions apart, less than P+G apart,
// E < (Samples+1)·(P+G). There is no closed form in between — a sample slips
// by however far into a basic block its epoch ended — but the count is a pure
// function of the program (prof's TestSamplingDeterministic). At P = 4096 the
// measured counts are ⌊E÷P⌋ less 0 to 5, and G = 512 is four times the worst
// mean slip (126 instructions, LLVM cheap/q6 at P = 1024).
func TestCountersSampler(t *testing.T) {
	const period, gap = 4096, 512
	for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
		w := loadedAt(t, Options{Arch: arch}, 0.02)
		qs, err := Queries("tpch")
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range compilingEngines(arch) {
			for _, name := range []string{"q1", "q6"} {
				q, err := Pick(qs, name)
				if err != nil {
					t.Fatal(err)
				}
				name = arch.String() + "/" + eng.Name() + "/" + name
				p := lowerCompile(t, w, eng, q[0])
				off := runCounted(t, w, p)
				s := &vm.Sampler{Period: period}
				w.DB.M.SetSampler(s)
				on := runCounted(t, w, p)
				w.DB.M.SetSampler(nil)
				if !reflect.DeepEqual(on, off) {
					t.Errorf("%s: with a sampler %d rows and %d/%d/%d instructions/branches/memory operations, without %d rows and %d/%d/%d",
						name, len(on.rows), on.executed, on.branches, on.memOps,
						len(off.rows), off.executed, off.branches, off.memOps)
				}
				if s.Samples*period > on.executed || on.executed >= (s.Samples+1)*(period+gap) {
					t.Errorf("%s: %d samples at period %d over %d instructions", name, s.Samples, period, on.executed)
				}
			}
		}
	}
}

// TestCountersCodeQuality: the execution half of the paper's Table III as
// executed vm instructions, summed over the 22 TPC-H plans at sf 0.01 on each
// target — a function of the generated code alone. LLVM cheap (-O0 by
// design) executes the most. GCC, whose code the paper has second-fastest,
// executes at most 1.15 times what the single-pass engine of the target does
// (DirectEmit on vx64, Cranelift on va64; measured 0.57 and 0.78) and stays
// under a ceiling recorded from this tree (measured 995 943 and 1 022 122;
// 3 618 328 and 3 607 477 with the write-through frames it replaced). LLVM
// optimized and Cranelift stay close to each other: within 1.25 on vx64
// (measured 1.17), 1.35 on va64 (1.32).
func TestCountersCodeQuality(t *testing.T) {
	for _, c := range []struct {
		arch       vt.Arch
		singlePass string
		gccCeiling int64
		optVsClift float64
	}{
		{vt.VX64, "DirectEmit", 1_010_000, 1.25},
		{vt.VA64, "Cranelift", 1_040_000, 1.35},
	} {
		w := loadedAt(t, Options{Arch: c.arch}, 0.01)
		qs, err := Queries("tpch")
		if err != nil {
			t.Fatal(err)
		}
		total := map[string]int64{}
		for _, eng := range compilingEngines(c.arch) {
			for _, q := range qs {
				total[eng.Name()] += runCounted(t, w, lowerCompile(t, w, eng, q)).executed
			}
			t.Logf("%s %s: %d vm instructions", c.arch, eng.Name(), total[eng.Name()])
		}
		for name, n := range total {
			if name != "LLVM cheap" && n >= total["LLVM cheap"] {
				t.Errorf("%s: %s executes %d vm instructions, LLVM cheap %d: the -O0 engine should execute the most",
					c.arch, name, n, total["LLVM cheap"])
			}
		}
		gcc, single := total["GCC"], total[c.singlePass]
		if float64(gcc) > 1.15*float64(single) {
			t.Errorf("%s: GCC executes %d vm instructions, %.2f times %s's %d; limit 1.15",
				c.arch, gcc, float64(gcc)/float64(single), c.singlePass, single)
		}
		if gcc > c.gccCeiling {
			t.Errorf("%s: GCC executes %d vm instructions, ceiling %d", c.arch, gcc, c.gccCeiling)
		}
		opt, clift := float64(total["LLVM optimized"]), float64(total["Cranelift"])
		if r := max(opt/clift, clift/opt); r > c.optVsClift {
			t.Errorf("%s: LLVM optimized and Cranelift execute %.0f and %.0f vm instructions, a factor %.2f apart; limit %.2f",
				c.arch, opt, clift, r, c.optVsClift)
		}
	}
}
