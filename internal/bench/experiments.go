package bench

import (
	"fmt"
	"sort"
	"time"

	"qcc/internal/backend"
	"qcc/internal/backend/cbe"
	"qcc/internal/backend/clift"
	"qcc/internal/backend/direct"
	"qcc/internal/backend/lbe"
	"qcc/internal/engine"
	"qcc/internal/vt"
)

// DSQueries is the TPC-DS suite.
func DSQueries() []Query { return mustQueries("tpcds") }

// HQueries is the TPC-H suite.
func HQueries() []Query { return mustQueries("tpch") }

func mustQueries(workload string) []Query {
	qs, err := engine.Queries(workload)
	if err != nil {
		panic(err)
	}
	return qs
}

func loadDS(cfg Config) (*World, error) { return NewWorldLoaded(cfg, "tpcds") }

func loadH(cfg Config, sf float64) (*World, error) {
	cfg.SF = sf
	return NewWorldLoaded(cfg, "tpch")
}

// NewWorldLoaded creates a world with the named workload ("tpch" or
// "tpcds") loaded at cfg.SF.
func NewWorldLoaded(cfg Config, workload string) (*World, error) {
	w := NewWorld(cfg)
	if err := w.Load(workload, cfg.SF); err != nil {
		return nil, err
	}
	return w, nil
}

// Table1 reproduces the GCC/C compile-time breakdown over all TPC-DS
// queries (paper Table I).
func Table1(cfg Config) (*Report, error) {
	w, err := loadDS(cfg)
	if err != nil {
		return nil, err
	}
	run, err := RunSuite(w, cbe.New(), DSQueries(), 0)
	if err != nil {
		return nil, err
	}
	r := &Report{Title: fmt.Sprintf("Table I: GCC/C back-end compile-time breakdown (%s, all TPC-DS)", cfg.Arch)}
	phaseTable(r, run.Stats)
	r.addf("  functions compiled: %d", run.Stats.Funcs)
	return r, nil
}

// Fig2 reproduces the LLVM compile-time breakdown, cheap vs optimized
// (paper Figure 2).
func Fig2(cfg Config) (*Report, error) {
	r := &Report{Title: fmt.Sprintf("Figure 2: LLVM compile-time breakdown (%s, all TPC-DS)", cfg.Arch)}
	for _, mode := range []struct {
		name string
		eng  backend.Engine
	}{
		{"cheap (-O0, FastISel, fast RA)", lbe.NewCheap()},
		{"optimized (-O2, SelectionDAG, greedy RA)", lbe.NewOpt()},
	} {
		w, err := loadDS(cfg)
		if err != nil {
			return nil, err
		}
		run, err := RunSuite(w, mode.eng, DSQueries(), 0)
		if err != nil {
			return nil, err
		}
		r.addf("%s:", mode.name)
		phaseTable(r, run.Stats)
		for _, c := range []string{"fastisel_fallbacks", "dag_nodes", "knownbits_queries", "passes_run"} {
			if v, ok := run.Stats.Counters[c]; ok {
				r.addf("  %-24s %d", c, v)
			}
		}
		r.Lines = append(r.Lines, "")
	}
	return r, nil
}

// Fig3 compares FastISel, SelectionDAG and GlobalISel on the va64 target
// (paper Figure 3, AArch64).
func Fig3(cfg Config) (*Report, error) {
	cfg.Arch = vt.VA64
	r := &Report{Title: "Figure 3: LLVM instruction selectors on va64 (all TPC-DS)"}
	modes := []struct {
		name string
		eng  backend.Engine
	}{
		{"FastISel (cheap)", lbe.NewCheap()},
		{"GlobalISel (cheap)", lbe.NewWithConfig(lbe.Config{ISel: lbe.ISelGlobal})},
		{"SelectionDAG (optimized)", lbe.NewOpt()},
		{"GlobalISel (optimized)", lbe.NewWithConfig(lbe.Config{Opt: true, ISel: lbe.ISelGlobal})},
	}
	var totals []time.Duration
	var isels []time.Duration
	for _, mode := range modes {
		run, err := bestSuite(3, func() (*World, error) { return loadDS(cfg) },
			mode.eng, DSQueries(), 0)
		if err != nil {
			return nil, err
		}
		totals = append(totals, run.Stats.Total)
		isels = append(isels, run.Stats.PhaseDur("ISel"))
		r.addf("%-28s total %s   ISel %s", mode.name,
			fmtDur(run.Stats.Total), fmtDur(run.Stats.PhaseDur("ISel")))
	}
	if isels[0] > 0 {
		r.addf("GlobalISel cheap ISel is %.2fx FastISel ISel", float64(isels[1])/float64(isels[0]))
	}
	if isels[3] > 0 {
		r.addf("GlobalISel opt ISel is %.2fx SelectionDAG ISel", float64(isels[3])/float64(isels[2]))
	}
	r.addf("cheap total change with GlobalISel: %+.0f%%",
		100*(float64(totals[1])/float64(totals[0])-1))
	r.addf("opt total change with GlobalISel: %+.0f%%",
		100*(float64(totals[3])/float64(totals[2])-1))
	return r, nil
}

// Fig4 reproduces the Cranelift compile-time breakdown (paper Figure 4).
func Fig4(cfg Config) (*Report, error) {
	w, err := loadDS(cfg)
	if err != nil {
		return nil, err
	}
	run, err := RunSuite(w, clift.New(), DSQueries(), 0)
	if err != nil {
		return nil, err
	}
	r := &Report{Title: fmt.Sprintf("Figure 4: Cranelift compile-time breakdown (%s, all TPC-DS)", cfg.Arch)}
	phaseTable(r, run.Stats)
	for _, c := range []string{"bundles", "spilled", "btree_inserts"} {
		if v, ok := run.Stats.Counters[c]; ok {
			r.addf("  %-24s %d", c, v)
		}
	}
	return r, nil
}

// Fig5 reproduces the DirectEmit breakdown (paper Figure 5).
func Fig5(cfg Config) (*Report, error) {
	cfg.Arch = vt.VX64
	w, err := loadDS(cfg)
	if err != nil {
		return nil, err
	}
	run, err := RunSuite(w, direct.New(), DSQueries(), 0)
	if err != nil {
		return nil, err
	}
	r := &Report{Title: "Figure 5: DirectEmit compile-time breakdown (vx64, all TPC-DS)"}
	phaseTable(r, run.Stats)
	return r, nil
}

// Table2 reproduces the Cranelift custom-instruction run-time ablation
// (paper Table II): speedup from enabling each custom instruction.
func Table2(cfg Config) (*Report, error) {
	r := &Report{Title: fmt.Sprintf("Table II: Cranelift custom instructions, execution speedup (%s, TPC-DS sf=%g)", cfg.Arch, cfg.SF)}
	baseline, err := table2Run(cfg, clift.Options{})
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name string
		opts clift.Options
	}{
		{"crc32", clift.Options{NoCrc32: true}},
		{"overflow arithmetic", clift.Options{NoOverflow: true}},
		{"wide multiply", clift.Options{NoMulWide: true}},
		{"all disabled", clift.Options{NoCrc32: true, NoOverflow: true, NoMulWide: true}},
	}
	r.addf("%-22s %10s %10s", "instruction", "avg", "max")
	for _, c := range cases {
		without, err := table2Run(cfg, c.opts)
		if err != nil {
			return nil, err
		}
		// Speedup of having the instruction = time(without)/time(with).
		avg := float64(without.Exec) / float64(baseline.Exec)
		maxv := 0.0
		for i := range baseline.Queries {
			if baseline.Queries[i].Exec == 0 {
				continue
			}
			s := float64(without.Queries[i].Exec) / float64(baseline.Queries[i].Exec)
			if s > maxv {
				maxv = s
			}
		}
		r.addf("%-22s %9.3fx %9.3fx", c.name, avg, maxv)
	}
	return r, nil
}

func table2Run(cfg Config, opts clift.Options) (*EngineRun, error) {
	w, err := loadDS(cfg)
	if err != nil {
		return nil, err
	}
	return RunSuite(w, clift.NewWithOptions(opts), DSQueries(), cfg.Runs)
}

// Table3 reproduces the compile-time and execution comparison of all
// back-ends (paper Table III), optionally per-query (figure 6 data).
func Table3(cfg Config, perQuery bool) (*Report, error) {
	r := &Report{Title: fmt.Sprintf("Table III: back-end comparison (%s, TPC-DS sf=%g)", cfg.Arch, cfg.SF)}
	r.addf("%-16s %12s %12s %16s", "back-end", "compile", "exec", "VM instructions")
	for _, eng := range Engines(cfg.Arch) {
		run, err := bestSuite(2, func() (*World, error) { return loadDS(cfg) },
			eng, DSQueries(), cfg.Runs)
		if err != nil {
			return nil, err
		}
		var instr int64
		for _, q := range run.Queries {
			instr += q.Executed
		}
		r.addf("%-16s %s %s %16d", run.Engine, fmtDur(run.Compile), fmtDur(run.Exec), instr)
		if perQuery {
			for _, q := range run.Queries {
				r.addf("    %-8s comp %s exec %s rows %d", q.Name, fmtDur(q.Compile), fmtDur(q.Exec), q.Rows)
			}
		}
	}
	return r, nil
}

// Fig7 reproduces the best-back-end-per-query trade-off on TPC-H at two
// scale factors (paper Figure 7).
func Fig7(cfg Config, sfSmall, sfLarge float64) (*Report, error) {
	cfg.Arch = vt.VX64
	r := &Report{Title: fmt.Sprintf("Figure 7: best back-end by compile+execution time (TPC-H, vx64, sf=%g and sf=%g)", sfSmall, sfLarge)}
	for _, sf := range []float64{sfSmall, sfLarge} {
		runs := map[string]*EngineRun{}
		var order []string
		for _, eng := range Engines(vt.VX64) {
			w, err := loadH(cfg, sf)
			if err != nil {
				return nil, err
			}
			run, err := RunSuite(w, eng, HQueries(), cfg.Runs)
			if err != nil {
				return nil, err
			}
			runs[run.Engine] = run
			order = append(order, run.Engine)
		}
		r.addf("scale factor %g:", sf)
		wins := map[string]int{}
		for qi := range runs[order[0]].Queries {
			best := ""
			var bestT time.Duration
			for _, name := range order {
				q := runs[name].Queries[qi]
				t := q.Compile + q.Exec
				if best == "" || t < bestT {
					best, bestT = name, t
				}
			}
			wins[best]++
			r.addf("  %-6s best: %-14s (%s)", runs[order[0]].Queries[qi].Name, best, fmtDur(bestT))
		}
		var names []string
		for n := range wins {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			r.addf("  %-16s wins %d queries", n, wins[n])
		}
		r.Lines = append(r.Lines, "")
	}
	return r, nil
}

// AblateLLVM reproduces the Sec. V-A2 compile-time measures: scalar pairs
// vs {i64,i64} structs, Small-PIC vs large code model, and TargetMachine
// caching, plus the FastISel fallback census of Sec. V-B3b.
func AblateLLVM(cfg Config) (*Report, error) {
	r := &Report{Title: fmt.Sprintf("LLVM compile-time ablations (%s, all TPC-DS)", cfg.Arch)}
	cases := []struct {
		name string
		cfgE lbe.Config
	}{
		{"baseline (scalar pairs, Small-PIC, TM cache)", lbe.Config{}},
		{"{i64,i64} structs for strings", lbe.Config{StructPairs: true}},
		{"large code model", lbe.Config{LargeCodeModel: true}},
		{"no TargetMachine cache", lbe.Config{NoTMCache: true}},
		{"optimized baseline", lbe.Config{Opt: true}},
		{"optimized + structs", lbe.Config{Opt: true, StructPairs: true}},
	}
	var base time.Duration
	for i, c := range cases {
		run, err := bestSuite(3, func() (*World, error) { return loadDS(cfg) },
			lbe.NewWithConfig(c.cfgE), DSQueries(), 0)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = run.Stats.Total
		}
		rel := ""
		if i > 0 && !c.cfgE.Opt && base > 0 {
			rel = fmt.Sprintf("  (%+.1f%% vs baseline)", 100*(float64(run.Stats.Total)/float64(base)-1))
		}
		r.addf("%-44s %s%s", c.name, fmtDur(run.Stats.Total), rel)
		fb := run.Stats.Counters["fastisel_fallbacks"]
		if fb > 0 {
			r.addf("    fallbacks: %d (calls %d, i128 %d, struct %d, other %d)",
				fb,
				run.Stats.Counters["fastisel_fallback_call"],
				run.Stats.Counters["fastisel_fallback_i128"],
				run.Stats.Counters["fastisel_fallback_struct"],
				run.Stats.Counters["fastisel_fallback_other"])
		}
	}
	return r, nil
}
