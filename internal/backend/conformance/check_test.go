package conformance_test

import (
	"testing"

	"qcc/internal/backend"
	"qcc/internal/backend/cbe"
	"qcc/internal/backend/clift"
	"qcc/internal/backend/direct"
	"qcc/internal/backend/lbe"
	"qcc/internal/bench"
	"qcc/internal/codegen"
	"qcc/internal/mcv"
	"qcc/internal/vt"
)

// checkedEngines are the back-ends wired to the machine-code verifier:
// both register allocators of lbe (fast and greedy) exercise the symbolic
// regalloc checker, clift exercises it through its edge-move model, and
// direct (vx64 only) and gcc run lint and summary over their output.
func checkedEngines(arch vt.Arch) map[string]backend.Engine {
	es := map[string]backend.Engine{
		"clift":      clift.New(),
		"gcc":        cbe.New(),
		"llvm-cheap": lbe.NewCheap(),
		"llvm-opt":   lbe.NewOpt(),
	}
	if arch == vt.VX64 {
		es["direct"] = direct.New()
	}
	return es
}

// TestCheckedCompileTPCH compiles every TPC-H query on every verifier-wired
// back-end with Options.Check set: the register-allocation checker, the
// machine-code lint, and the summary pass must all come back clean, the
// Check phases must be recorded, and the per-function structural summaries
// must agree across back-ends (cross-backend differential).
func TestCheckedCompileTPCH(t *testing.T) {
	for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			cfg := bench.DefaultConfig()
			cfg.Arch = arch
			cfg.SF = 0.01
			cfg.MemMB = 256

			// engine -> query -> per-function summaries
			sums := map[string]map[string][]mcv.FuncSummary{}
			for ename, eng := range checkedEngines(arch) {
				w, err := bench.NewWorldLoaded(cfg, "tpch")
				if err != nil {
					t.Fatalf("load tpch: %v", err)
				}
				sums[ename] = map[string][]mcv.FuncSummary{}
				for _, q := range bench.HQueries() {
					c, err := codegen.Compile(q.Name, q.Build(), w.Cat)
					if err != nil {
						t.Fatalf("codegen %s: %v", q.Name, err)
					}
					_, stats, err := eng.Compile(c.Module, &backend.Env{
						DB: w.DB, Arch: arch,
						Options: backend.Options{Check: true},
					})
					if err != nil {
						t.Errorf("%s/%s: checked compile failed:\n%v", ename, q.Name, err)
						continue
					}
					if stats.PhaseDur("Check.Lint") <= 0 {
						t.Errorf("%s/%s: no Check.Lint phase recorded", ename, q.Name)
					}
					if len(stats.Summaries) == 0 {
						t.Errorf("%s/%s: no function summaries produced", ename, q.Name)
					}
					sums[ename][q.Name] = stats.Summaries
				}
			}

			// Cross-backend differential: every engine must agree with the
			// clift baseline on runtime-call and trap sets per function,
			// modulo the canonicalized overflow-failure idiom (clift traps
			// inline where lbe calls the no-return throw_ helper).
			base := sums["clift"]
			for ename, byQuery := range sums {
				if ename == "clift" {
					continue
				}
				for qname, s := range byQuery {
					d := mcv.Diff("clift", mcv.CanonicalizeFailures(base[qname]),
						ename, mcv.CanonicalizeFailures(s))
					for _, diag := range d {
						t.Errorf("%s: clift vs %s: %s", qname, ename, diag)
					}
				}
			}
		})
	}
}
