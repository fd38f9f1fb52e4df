package conformance_test

import (
	"reflect"
	"testing"

	"qcc/internal/backend"
	"qcc/internal/bench"
	"qcc/internal/codegen"
	"qcc/internal/obs"
	"qcc/internal/vt"
)

// queryOutcome captures everything the fused/unfused differential must hold
// identical: result rows (canonical text), the architecture-neutral runtime
// counters, and the error (trap PC, frames, message) if one occurred.
type queryOutcome struct {
	Rows     []string
	Executed int64
	Branches int64
	MemOps   int64
	Err      string
}

// runSuiteMode compiles and executes every TPC-H query with one engine and
// one dispatch loop — the fused one every back-end ships, or the plain
// decoded-switch loop the test selects on the compiled module as the
// reference — on a fresh world, and returns the per-query outcomes.
func runSuiteMode(t *testing.T, arch vt.Arch, eng backend.Engine, fuse bool) map[string]queryOutcome {
	t.Helper()
	cfg := bench.DefaultConfig()
	cfg.Arch = arch
	cfg.SF = 0.01
	cfg.MemMB = 256
	w, err := bench.NewWorldLoaded(cfg, "tpch")
	if err != nil {
		t.Fatalf("load tpch: %v", err)
	}
	out := map[string]queryOutcome{}
	w.DB.Checkpoint()
	fusedModules := obs.NewCounter("vm_fuse_modules")
	fused0 := fusedModules.Load()
	for _, q := range bench.HQueries() {
		c, err := codegen.Compile(q.Name, q.Build(), w.Cat)
		if err != nil {
			t.Fatalf("codegen %s: %v", q.Name, err)
		}
		ex, _, err := eng.Compile(c.Module, &backend.Env{DB: w.DB, Arch: arch})
		if err != nil {
			t.Fatalf("%s/%s: compile: %v", eng.Name(), q.Name, err)
		}
		if mod := backend.ModuleOf(ex); mod != nil { // the interpreter has none
			mod.SetFuse(fuse)
		}
		w.DB.ResetQueryState()
		startInstr := w.DB.M.Executed
		startBranch := w.DB.M.Branches
		startMem := w.DB.M.MemOps
		var o queryOutcome
		if err := codegen.Run(w.DB, w.Cat, c, ex.Call); err != nil {
			o.Err = err.Error()
		}
		o.Rows = w.DB.Out.Canonical()
		o.Executed = w.DB.M.Executed - startInstr
		o.Branches = w.DB.M.Branches - startBranch
		o.MemOps = w.DB.M.MemOps - startMem
		out[q.Name] = o
		w.DB.ResetToCheckpoint()
	}
	// The plain leg is only a reference if it really ran the plain loop.
	if n := fusedModules.Load() - fused0; !fuse && n != 0 {
		t.Fatalf("%s: %d modules built a fused view with fusion switched off", eng.Name(), n)
	}
	return out
}

// TestFusedDispatchDifferential runs every TPC-H query on both architectures
// with every back-end, fused and unfused, and requires byte-identical result
// rows, identical Executed/Branches/MemOps counters, and identical errors.
// This is the enforcement of the fusion contract: superinstruction dispatch
// is a pure execution strategy, invisible to every observable output.
func TestFusedDispatchDifferential(t *testing.T) {
	for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			for _, eng := range bench.Engines(arch) {
				eng := eng
				t.Run(eng.Name(), func(t *testing.T) {
					fused := runSuiteMode(t, arch, eng, true)
					plain := runSuiteMode(t, arch, eng, false)
					for name, f := range fused {
						p, ok := plain[name]
						if !ok {
							t.Errorf("%s: missing from the plain-loop run", name)
							continue
						}
						if !reflect.DeepEqual(f.Rows, p.Rows) {
							t.Errorf("%s: fused rows differ from the plain loop\n fused (%d rows): %.6v\n plain (%d rows): %.6v",
								name, len(f.Rows), f.Rows, len(p.Rows), p.Rows)
						}
						if f.Executed != p.Executed || f.Branches != p.Branches || f.MemOps != p.MemOps {
							t.Errorf("%s: counters diverge: fused instrs=%d br=%d mem=%d, plain instrs=%d br=%d mem=%d",
								name, f.Executed, f.Branches, f.MemOps, p.Executed, p.Branches, p.MemOps)
						}
						if f.Err != p.Err {
							t.Errorf("%s: errors diverge:\n fused: %s\n plain: %s", name, f.Err, p.Err)
						}
					}
				})
			}
		})
	}
}
