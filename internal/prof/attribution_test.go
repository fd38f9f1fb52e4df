package prof_test

import (
	"testing"

	"qcc/internal/backend"
	"qcc/internal/engine"
	"qcc/internal/prof"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// tpchWorld loads TPC-H at sf 0.01 and returns the world, the first
// compiling engine of its target (DirectEmit on vx64, Cranelift on va64) and
// the named queries.
func tpchWorld(t *testing.T, arch vt.Arch, names ...string) (*engine.World, backend.Engine, []engine.Query) {
	t.Helper()
	w := engine.NewWorld(engine.Options{Arch: arch, MemMB: 384})
	if err := w.Load("tpch", 0.01); err != nil {
		t.Fatalf("load tpch: %v", err)
	}
	all, err := engine.Queries("tpch")
	if err != nil {
		t.Fatal(err)
	}
	var qs []engine.Query
	for _, name := range names {
		q, err := engine.Pick(all, name)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q...)
	}
	return w, engine.Backends(arch)[1], qs
}

// TestProfileAttribution drives the whole attribution chain — codegen
// provenance, back-end PC-range maps, dispatch-loop sampling, collector
// resolution — on TPC-H Q1 and Q6 for both target architectures and both
// views of the compiled module the vm dispatches (the fused one, and the
// unfused one selected on the module) and checks that at least 95% of sampled VM time resolves to named
// plan operators.
func TestProfileAttribution(t *testing.T) {
	for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
		for _, fuse := range []bool{true, false} {
			w, eng, qs := tpchWorld(t, arch, "q1", "q6")
			for _, q := range qs {
				c, err := w.Lower(q.Name, q.Build())
				if err != nil {
					t.Fatalf("%s: %v", q.Name, err)
				}
				p, err := w.Compile(eng, c)
				if err != nil {
					t.Fatalf("%s: %v", q.Name, err)
				}
				backend.ModuleOf(p.Exec).SetFuse(fuse)
				col := prof.NewCollector(c.Module)
				s := &vm.Sampler{Period: 512, Hit: col.Hit}
				w.DB.M.SetSampler(s)
				_, err = w.Run(p)
				w.DB.M.SetSampler(nil)
				w.Release()
				if err != nil {
					t.Fatalf("%s: run: %v", q.Name, err)
				}
				pr := col.Profile(arch.String(), q.Name, s)
				if pr.Samples < 20 {
					t.Fatalf("%s/%s fuse=%v: only %d samples; period too long for the workload",
						arch, q.Name, fuse, pr.Samples)
				}
				if rate := pr.AttributionRate(); rate < 0.95 {
					t.Errorf("%s/%s fuse=%v: attribution %.1f%% < 95%% (samples=%d unattributed=%d)",
						arch, q.Name, fuse, 100*rate, pr.Samples, pr.Unattributed)
					for _, f := range pr.Funcs {
						t.Logf("  %s op=%q samples=%d", f.Name, f.Operator, f.Samples)
					}
				}
				named := int64(0)
				for op, n := range pr.ByOperator() {
					if op != "?" {
						named += n
					}
				}
				if named == 0 {
					t.Fatalf("%s/%s: no samples attributed to any operator", arch, q.Name)
				}
			}
		}
	}
}

// TestSamplingDeterministic checks that instruction-count epochs make the
// sample set a pure function of the executed program: two identical runs
// yield identical sample counts.
func TestSamplingDeterministic(t *testing.T) {
	w, eng, qs := tpchWorld(t, vt.VX64, "q1")
	c, err := w.Lower(qs[0].Name, qs[0].Build())
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Compile(eng, c)
	if err != nil {
		t.Fatal(err)
	}
	capture := func() int64 {
		s := &vm.Sampler{Period: 1024, Hit: prof.NewCollector(c.Module).Hit}
		w.DB.M.SetSampler(s)
		_, err := w.Run(p)
		w.DB.M.SetSampler(nil)
		w.Release()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return s.Samples
	}
	a, b := capture(), capture()
	if a == 0 || a != b {
		t.Fatalf("sampling not deterministic: %d vs %d samples", a, b)
	}
}
