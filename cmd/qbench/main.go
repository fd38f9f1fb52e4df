// Command qbench regenerates the paper's tables and figures.
//
// Usage:
//
//	qbench [-arch vx64|va64] [-sf 0.05] [-runs 1] [-mem 1024] [-jobs N]
//	       [-cache-mb 0] [-json file] [-check] [-nofuse]
//	       [-exec-jobs N] [-batch|-nobatch] <experiment>...
//
// Experiments: table1 table2 table3 fig2 fig3 fig4 fig5 fig6 fig7
// ablate-llvm fallbacks scaling cachewarm exec prof checkelim batch cache all
//
// The cache experiment measures the constant-hoisted plan cache: per
// back-end, each parameterized TPC-H family (q1/q3/q6/q15) compiles cold
// once and then a deterministic Zipf-skewed replay of constant variants
// runs against the same code cache, where hoisting makes every variant
// share one parameterized body. -cache-json writes its qcc.bench.cache/v1
// report (BENCH_cache.json); -cache-gate R fails the run when any engine's
// warm hit rate falls below R or the hoisted body regresses execution by
// more than 3% geomean over the fully inlined body.
//
// The batch experiment measures what batch-at-a-time kernels and the
// morsel-parallel executor buy at execution time: every TPC-H query runs
// sequentially tuple-at-a-time (the seed path), sequentially with batch
// kernels, and in parallel at -exec-jobs workers (default 4), per back-end.
// -batch-json writes its qcc.bench.batch/v1 report (BENCH_batch.json);
// -batch-gate R fails the run when q1 or q6 falls below a parallel speedup
// of R or the single-worker batch path regresses the tuple baseline by
// more than 25% (the CI exec gate).
//
// -exec-jobs and -batch/-nobatch also apply to the -json report's suite
// runs: -exec-jobs N executes table pipelines through the morsel-parallel
// executor and -batch compiles eligible scan pipelines to batch kernels
// (default on when -exec-jobs > 1; -nobatch forces tuple code). The
// exec_workers/exec_morsels and rt_batch_* global counters in the report
// then reflect those configurations.
//
// The checkelim experiment measures what the compile-time check-elimination
// pass buys at execution time: every TPC-H query compiled with and without
// its statically proven unchecked marks, per back-end. -checkelim-json
// writes its qcc.bench.checkelim/v1 report; -checkelim-gate R fails the run
// when Q1 or Q6 falls below an elimination ratio of R (the CI gate).
//
// The prof experiment measures the VM profiler itself: per-query sampling
// overhead (sampler off vs on) and operator attribution over the TPC-H
// suite. -prof-json writes its qcc.bench.prof/v1 report; -prof-budget N
// turns the run into a CI gate that fails when the geomean sampling
// overhead exceeds N percent.
//
// -json writes a machine-readable report (schema qcc.obs.report/v2) of the
// TPC-H suite over all engines to the given file ("-" for stdout). With
// -json and no experiment arguments, only the JSON report is produced.
// -check runs the machine-code verifier inside every compilation; its cost
// appears as Check.* phases in the report.
// -jobs shards each compilation across N worker goroutines (the parallel
// driver, internal/backend/pcc); -jobs 1 is the sequential seed code path.
// -cache-mb enables the content-addressed code cache with the given byte
// budget. Both apply to the -json report and the scaling/cachewarm
// experiments; the paper-reproduction experiments stay sequential.
// -nofuse disables the vm's superinstruction fusion, executing compiled
// modules through the plain decoded-switch dispatch loop (identical results
// and counters; dispatch-cost measurement and escape hatch).
// -check and -nofuse reach every experiment: all of them compile and run
// through internal/engine, which registers the option flags above
// (engine.ParseCommand) and owns what they mean.
package main

import (
	"flag"
	"fmt"
	"os"

	"qcc/internal/bench"
	"qcc/internal/engine"
)

func main() {
	sfSmall := flag.Float64("sf-small", 0.02, "small scale factor for fig7")
	sfLarge := flag.Float64("sf-large", 0.2, "large scale factor for fig7")
	jsonOut := flag.String("json", "", "write a qcc.obs.report/v2 JSON report of the TPC-H suite to this file (\"-\" for stdout)")
	execJSON := flag.String("exec-json", "", "write the exec experiment's dispatch-cost report (schema qcc.bench.exec/v1) to this file")
	profJSON := flag.String("prof-json", "", "write the prof experiment's profiler report (schema qcc.bench.prof/v1) to this file")
	profPeriod := flag.Int64("prof-period", 0, "prof experiment sampling period in VM instructions (0 = default)")
	profBudget := flag.Float64("prof-budget", 0, "fail (exit 1) if the prof experiment's geomean sampling overhead exceeds this percentage (0 = no gate)")
	checkElimJSON := flag.String("checkelim-json", "", "write the checkelim experiment's report (schema qcc.bench.checkelim/v1) to this file")
	checkElimGate := flag.Float64("checkelim-gate", 0, "fail (exit 1) if the checkelim experiment eliminates less than this fraction of q1/q6 static checks (0 = no gate)")
	batchJSON := flag.String("batch-json", "", "write the batch experiment's report (schema qcc.bench.batch/v1) to this file")
	batchGate := flag.Float64("batch-gate", 0, "fail (exit 1) if the batch experiment's q1/q6 parallel speedup falls below this factor (0 = no gate)")
	cacheJSON := flag.String("cache-json", "", "write the cache experiment's plan-cache report (schema qcc.bench.cache/v1) to this file")
	cacheGate := flag.Float64("cache-gate", 0, "fail (exit 1) if the cache experiment's warm hit rate falls below this fraction or hoisting regresses execution beyond 3% geomean (0 = no gate)")
	cfg, err := engine.ParseCommand("qbench", flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *jsonOut != "" {
		// Open the destination before the (long) benchmark run so a bad
		// path fails immediately.
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "json: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		rep, err := bench.JSONReport(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		if err := rep.Write(out); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
	}

	args := flag.Args()
	if len(args) == 0 {
		if *jsonOut != "" {
			return // JSON-only invocation
		}
		args = []string{"all"}
	}
	type experiment struct {
		name string
		run  func() (*bench.Report, error)
	}
	exps := []experiment{
		{"table1", func() (*bench.Report, error) { return bench.Table1(cfg) }},
		{"table2", func() (*bench.Report, error) { return bench.Table2(cfg) }},
		{"table3", func() (*bench.Report, error) { return bench.Table3(cfg, false) }},
		{"fig2", func() (*bench.Report, error) { return bench.Fig2(cfg) }},
		{"fig3", func() (*bench.Report, error) { return bench.Fig3(cfg) }},
		{"fig4", func() (*bench.Report, error) { return bench.Fig4(cfg) }},
		{"fig5", func() (*bench.Report, error) { return bench.Fig5(cfg) }},
		{"fig6", func() (*bench.Report, error) { return bench.Table3(cfg, true) }},
		{"fig7", func() (*bench.Report, error) { return bench.Fig7(cfg, *sfSmall, *sfLarge) }},
		{"ablate-llvm", func() (*bench.Report, error) { return bench.AblateLLVM(cfg) }},
		{"fallbacks", func() (*bench.Report, error) { return bench.AblateLLVM(cfg) }},
		{"scaling", func() (*bench.Report, error) { return bench.Scaling(cfg, nil) }},
		{"cachewarm", func() (*bench.Report, error) { return bench.CacheWarm(cfg) }},
		{"exec", func() (*bench.Report, error) {
			rep, jrep, err := bench.DispatchCost(cfg)
			if err != nil {
				return nil, err
			}
			if *execJSON != "" {
				f, err := os.Create(*execJSON)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				if err := jrep.Write(f); err != nil {
					return nil, err
				}
			}
			return rep, nil
		}},
		{"checkelim", func() (*bench.Report, error) {
			rep, jrep, err := bench.CheckElimCost(cfg)
			if err != nil {
				return nil, err
			}
			if *checkElimJSON != "" {
				f, err := os.Create(*checkElimJSON)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				if err := jrep.Write(f); err != nil {
					return nil, err
				}
			}
			if *checkElimGate > 0 {
				for _, eng := range jrep.Engines {
					for _, q := range eng.Queries {
						if (q.Name == "q1" || q.Name == "q6") && q.Ratio < *checkElimGate {
							return nil, fmt.Errorf("%s/%s: elimination ratio %.2f below gate %.2f",
								eng.Engine, q.Name, q.Ratio, *checkElimGate)
						}
					}
				}
			}
			return rep, nil
		}},
		{"batch", func() (*bench.Report, error) {
			rep, jrep, err := bench.BatchCost(cfg)
			if err != nil {
				return nil, err
			}
			if *batchJSON != "" {
				f, err := os.Create(*batchJSON)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				if err := jrep.Write(f); err != nil {
					return nil, err
				}
			}
			if *batchGate > 0 {
				if err := bench.GateBatch(jrep, *batchGate, 1.25); err != nil {
					return nil, err
				}
			}
			return rep, nil
		}},
		{"cache", func() (*bench.Report, error) {
			rep, jrep, err := bench.PlanCacheCost(cfg)
			if err != nil {
				return nil, err
			}
			if *cacheJSON != "" {
				f, err := os.Create(*cacheJSON)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				if err := jrep.Write(f); err != nil {
					return nil, err
				}
			}
			if *cacheGate > 0 {
				if err := bench.GateCache(jrep, *cacheGate, 1.03); err != nil {
					return nil, err
				}
			}
			return rep, nil
		}},
		{"prof", func() (*bench.Report, error) {
			rep, jrep, err := bench.ProfileSuite(cfg, *profPeriod)
			if err != nil {
				return nil, err
			}
			if *profJSON != "" {
				f, err := os.Create(*profJSON)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				if err := jrep.Write(f); err != nil {
					return nil, err
				}
			}
			if *profBudget > 0 && jrep.GeomeanOverheadPct > *profBudget {
				return nil, fmt.Errorf("sampling overhead %.2f%% exceeds budget %.2f%%",
					jrep.GeomeanOverheadPct, *profBudget)
			}
			return rep, nil
		}},
	}
	want := map[string]bool{}
	for _, a := range args {
		want[a] = true
	}
	ranAny := false
	for _, e := range exps {
		if !want["all"] && !want[e.name] {
			continue
		}
		if e.name == "fallbacks" && want["all"] {
			continue // same data as ablate-llvm
		}
		ranAny = true
		rep, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
	}
	if !ranAny {
		fmt.Fprintf(os.Stderr, "unknown experiment(s): %v\n", args)
		os.Exit(2)
	}
}
