package bench

import (
	"testing"

	"qcc/internal/codegen"
	"qcc/internal/prof"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// TestProfileAttribution drives the whole attribution chain — codegen
// provenance, back-end PC-range maps, dispatch-loop sampling, collector
// resolution — on TPC-H Q1 and Q6 for both target architectures and checks
// the tentpole acceptance criterion: at least 95% of sampled VM time
// resolves to named plan operators.
func TestProfileAttribution(t *testing.T) {
	for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
		for _, fuse := range []bool{true, false} {
			cfg := DefaultConfig()
			cfg.Arch = arch
			cfg.SF = 0.01
			cfg.NoFuse = !fuse
			w, err := loadH(cfg, cfg.SF)
			if err != nil {
				t.Fatalf("load tpch: %v", err)
			}
			eng := Engines(arch)[1] // first compiling engine (direct or clift)
			w.DB.Checkpoint()
			for _, q := range HQueries() {
				if q.Name != "q1" && q.Name != "q6" {
					continue
				}
				c, err := codegen.Compile(q.Name, q.Build(), w.Cat)
				if err != nil {
					t.Fatalf("%s: %v", q.Name, err)
				}
				ex, _, err := eng.Compile(c.Module, w.Env())
				if err != nil {
					t.Fatalf("%s: %v", q.Name, err)
				}
				col := prof.NewCollector(c.Module)
				s := &vm.Sampler{Period: 512, Hit: col.Hit}
				w.DB.M.SetSampler(s)
				if err := codegen.Run(w.DB, w.Cat, c, ex.Call); err != nil {
					t.Fatalf("%s: run: %v", q.Name, err)
				}
				w.DB.M.SetSampler(nil)
				p := col.Profile(arch.String(), q.Name, s)
				if p.Samples < 20 {
					t.Fatalf("%s/%s fuse=%v: only %d samples; period too long for the workload",
						arch, q.Name, fuse, p.Samples)
				}
				if rate := p.AttributionRate(); rate < 0.95 {
					t.Errorf("%s/%s fuse=%v: attribution %.1f%% < 95%% (samples=%d unattributed=%d)",
						arch, q.Name, fuse, 100*rate, p.Samples, p.Unattributed)
					for _, f := range p.Funcs {
						t.Logf("  %s op=%q samples=%d", f.Name, f.Operator, f.Samples)
					}
				}
				// Q1's time must land in its scan/groupby pipeline.
				ops := p.ByOperator()
				named := int64(0)
				for op, n := range ops {
					if op != "?" {
						named += n
					}
				}
				if named == 0 {
					t.Fatalf("%s/%s: no samples attributed to any operator", arch, q.Name)
				}
				w.DB.ResetQueryState()
			}
			w.DB.ResetToCheckpoint()
		}
	}
}

// TestSamplingDeterministic checks that instruction-count epochs make the
// sample set a pure function of the executed program: two identical runs
// yield identical sample counts.
func TestSamplingDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SF = 0.01
	w, err := loadH(cfg, cfg.SF)
	if err != nil {
		t.Fatalf("load tpch: %v", err)
	}
	eng := Engines(cfg.Arch)[1]
	q := HQueries()[0]
	c, err := codegen.Compile(q.Name, q.Build(), w.Cat)
	if err != nil {
		t.Fatal(err)
	}
	ex, _, err := eng.Compile(c.Module, w.Env())
	if err != nil {
		t.Fatal(err)
	}
	capture := func() int64 {
		col := prof.NewCollector(c.Module)
		s := &vm.Sampler{Period: 1024, Hit: col.Hit}
		w.DB.ResetQueryState()
		w.DB.M.SetSampler(s)
		if err := codegen.Run(w.DB, w.Cat, c, ex.Call); err != nil {
			t.Fatalf("run: %v", err)
		}
		w.DB.M.SetSampler(nil)
		return s.Samples
	}
	a, b := capture(), capture()
	if a == 0 || a != b {
		t.Fatalf("sampling not deterministic: %d vs %d samples", a, b)
	}
}
