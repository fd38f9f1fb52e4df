package codegen_test

import (
	"testing"

	"qcc/internal/codegen"
	"qcc/internal/obs"
)

// allocBudget caps testing.AllocsPerRun of CompileOpts{Elim,Hoist} per query.
// Before the single-analysis pass q1 took 2736 allocations and q6 1543; the
// budgets are half of that, and the measured counts (about 700 and 455) leave
// room for the generator to grow before anyone has to look here.
var allocBudget = map[string]float64{"tpch/q1": 1368, "tpch/q6": 771}

// TestOneAnalysisPerFunction is the deterministic front-end gate ci.sh runs:
// compiling every TPC-H and TPC-DS plan runs exactly one sa analysis per
// generated function, pools every literal, and stays inside the allocation
// budget.
func TestOneAnalysisPerFunction(t *testing.T) {
	analyzed := obs.NewCounter("sa.functions_analyzed")
	modules := obs.NewCounter("sa.modules_analyzed")
	opts := codegen.Options{Elim: true, Hoist: true}
	for _, w := range goldenWorlds(t) {
		for _, q := range w.queries {
			if q.name == "tpch/poolfull" {
				continue // refused rewrites force a second analysis, by design
			}
			a0, m0 := analyzed.Load(), modules.Load()
			c, err := codegen.CompileOpts(q.name, q.build(), w.cat, opts)
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			if got := analyzed.Load() - a0; got != int64(len(c.Module.Funcs)) {
				t.Errorf("%s: %d analyses for %d functions", q.name, got, len(c.Module.Funcs))
			}
			if got := modules.Load() - m0; got != 1 {
				t.Errorf("%s: sa.modules_analyzed advanced by %d, want 1", q.name, got)
			}
			if c.Elim.AnalysisNs <= 0 {
				t.Errorf("%s: AnalysisNs = %d, the pass was not timed", q.name, c.Elim.AnalysisNs)
			}
			if c.Hoist.Hoisted != c.Hoist.Candidates {
				t.Errorf("%s: hoisted %d of %d candidates", q.name, c.Hoist.Hoisted, c.Hoist.Candidates)
			}
			budget, ok := allocBudget[q.name]
			if !ok {
				continue
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := codegen.CompileOpts(q.name, q.build(), w.cat, opts); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.0f allocations per compile (budget %.0f)", q.name, allocs, budget)
			if allocs > budget {
				t.Errorf("%s: %.0f allocations per compile, budget %.0f", q.name, allocs, budget)
			}
		}
	}
}
