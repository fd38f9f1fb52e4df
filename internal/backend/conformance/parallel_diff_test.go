// Sequential-vs-parallel differential: the morsel-parallel executor (with
// and without batch kernels, scan and probe kernels alike) must reproduce
// the sequential tuple-at-a-time result byte for byte — same rows, same row
// order, same trap codes — for every TPC-H query, on both virtual targets,
// at every worker count. This is the executor's analog of the pcc
// byte-identity differential.
package conformance_test

import (
	"testing"

	"qcc/internal/backend"
	"qcc/internal/backend/clift"
	"qcc/internal/backend/direct"
	"qcc/internal/codegen"
	"qcc/internal/obs"
	"qcc/internal/rt"
	"qcc/internal/tpch"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// tpchWorld loads TPC-H small enough for an exhaustive differential but
// large enough that a 128-row morsel yields many morsels per pipeline.
func tpchWorld(t *testing.T, arch vt.Arch) *world {
	t.Helper()
	m := vm.New(vm.Config{Arch: arch, MemSize: 192 << 20})
	db := rt.NewDB(m)
	cat := rt.NewCatalog(db)
	if err := tpch.Load(cat, 0.02); err != nil {
		t.Fatalf("load tpch: %v", err)
	}
	return &world{db: db, cat: cat}
}

func diffEngine(arch vt.Arch) backend.Engine {
	if arch == vt.VX64 {
		return direct.New()
	}
	return clift.New()
}

func TestParallelDifferential(t *testing.T) {
	probeCalls := obs.NewCounter("rt_batch_probe_calls")
	for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			eng := diffEngine(arch)
			w := tpchWorld(t, arch)
			w.db.Checkpoint()
			// Probe kernels must run on the TPC-H joins at every worker
			// count, or the batch half of the differential silently
			// compares tuple code with itself.
			probes := map[int]int64{}
			defer func() {
				for _, jobs := range []int{1, 2, 4, 8} {
					if probes[jobs] == 0 && !t.Failed() {
						t.Errorf("no probe kernel ran with batch kernels on at %d workers", jobs)
					}
				}
			}()
			for _, q := range tpch.Queries() {
				q := q
				t.Run(q.Name, func(t *testing.T) {
					// Reference: default compile, sequential driver.
					c, err := codegen.Compile(q.Name, q.Build(), w.cat)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					ex, _, err := eng.Compile(c.Module, &backend.Env{DB: w.db, Arch: arch})
					if err != nil {
						t.Fatalf("engine compile: %v", err)
					}
					w.db.Out.Reset()
					if err := codegen.Run(w.db, w.cat, c, ex.Call); err != nil {
						t.Fatalf("reference run: %v", err)
					}
					ref := w.db.Out.Ordered()
					w.db.ResetToCheckpoint()

					// ResetToCheckpoint drops interned strings and worker
					// arenas, so each (batch, jobs) combination compiles a
					// fresh module rather than reusing one across resets.
					for _, batch := range []bool{false, true} {
						for _, jobs := range []int{1, 2, 4, 8} {
							copts := codegen.Options{Elim: true, Batch: batch, Parallel: true}
							cc, err := codegen.CompileOpts(q.Name, q.Build(), w.cat, copts)
							if err != nil {
								t.Fatalf("compile (batch=%v): %v", batch, err)
							}
							cex, _, err := eng.Compile(cc.Module, &backend.Env{DB: w.db, Arch: arch})
							if err != nil {
								t.Fatalf("engine compile (batch=%v): %v", batch, err)
							}
							mod := backend.ModuleOf(cex)
							if mod == nil {
								t.Fatalf("engine %s returned no vm module", eng.Name())
							}
							w.db.Out.Reset()
							p0 := probeCalls.Load()
							err = codegen.RunParallel(w.db, w.cat, cc, cex.Call,
								codegen.ExecOptions{Jobs: jobs, Module: mod, MorselSize: 128})
							if err != nil {
								t.Fatalf("batch=%v jobs=%d: run: %v", batch, jobs, err)
							}
							if batch {
								probes[jobs] += probeCalls.Load() - p0
							}
							got := w.db.Out.Ordered()
							if len(got) != len(ref) {
								t.Fatalf("batch=%v jobs=%d: %d rows, want %d", batch, jobs, len(got), len(ref))
							}
							for i := range got {
								if got[i] != ref[i] {
									t.Fatalf("batch=%v jobs=%d: row %d differs\n got: %s\nwant: %s",
										batch, jobs, i, got[i], ref[i])
								}
							}
							w.db.ResetToCheckpoint()
						}
					}
				})
			}
		})
	}
}

// TestParallelActuallyParallel guards against the differential passing
// trivially because every pipeline fell back to sequential execution: q1 at
// 4 workers must dispatch morsels to workers, and its batch compile must
// mark the scan pipeline's functions as batch mode in the provenance.
func TestParallelActuallyParallel(t *testing.T) {
	arch := vt.VX64
	eng := diffEngine(arch)
	w := tpchWorld(t, arch)
	w.db.Checkpoint()

	q := tpch.Queries()[0] // q1
	c, err := codegen.CompileOpts(q.Name, q.Build(), w.cat,
		codegen.Options{Elim: true, Batch: true, Parallel: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	batchFns := 0
	for _, f := range c.Module.Funcs {
		if f.Prov.Mode == "batch" {
			batchFns++
		}
	}
	if batchFns == 0 {
		t.Fatal("q1 compiled with Options.Batch has no batch-mode functions")
	}
	mergeFns := 0
	for _, p := range c.Pipelines {
		if p.MergeFn >= 0 {
			mergeFns++
		}
	}
	if mergeFns == 0 {
		t.Fatal("q1 compiled with Options.Parallel has no aggregation merge function")
	}

	ex, _, err := eng.Compile(c.Module, &backend.Env{DB: w.db, Arch: arch})
	if err != nil {
		t.Fatalf("engine compile: %v", err)
	}
	mod := backend.ModuleOf(ex)
	workersBefore := obs.NewCounter("exec_workers").Load()
	morselsBefore := obs.NewCounter("exec_morsels").Load()
	if err := codegen.RunParallel(w.db, w.cat, c, ex.Call,
		codegen.ExecOptions{Jobs: 4, Module: mod, MorselSize: 128}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := obs.NewCounter("exec_workers").Load() - workersBefore; got == 0 {
		t.Error("exec_workers did not advance: no pipeline ran in parallel")
	}
	if got := obs.NewCounter("exec_morsels").Load() - morselsBefore; got < 2 {
		t.Errorf("exec_morsels advanced by %d, want >= 2", got)
	}
	if rt_batch := obs.NewCounter("rt_batch_kernel_calls").Load(); rt_batch == 0 {
		t.Error("rt_batch_kernel_calls is zero: batch kernels never ran")
	}
	w.db.ResetToCheckpoint()
}
