// Command qtrace captures a compile-time trace of one (or every) query on
// one (or every) back-end and exports it as a Chrome trace-event JSON file
// (loadable in Perfetto or chrome://tracing), Prometheus text exposition,
// or the stable qcc.obs.report/v2 JSON schema.
//
// Usage:
//
//	qtrace [-arch vx64|va64] [-workload tpch|tpcds] [-query q1] [-engine all]
//	       [-sf 0.01] [-mem 512] [-runs 1] [-allocs] [-check] [-jobs N]
//	       [-cache-mb N] [-exec-jobs N] [-batch|-nobatch]
//	       [-format chrome|prom|json] [-o trace.json]
//
// -exec-jobs N executes table pipelines through the morsel-parallel
// executor with N workers and -batch compiles eligible scan pipelines to
// batch kernels (default on when -exec-jobs > 1; -nobatch forces tuple
// code), so exec spans and the exec_*/rt_batch_* counters cover those
// configurations too.
//
// Example (one TPC-H query, all engines, nested per-pass spans):
//
//	qtrace -workload tpch -query q1 -sf 0.01 -o q1.trace.json
//
// Flags shared with other commands are registered by engine.ParseCommand
// (DESIGN.md, "Query path").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"qcc/internal/backend"
	"qcc/internal/bench"
	"qcc/internal/engine"
	"qcc/internal/obs"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qtrace: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	workload := flag.String("workload", "tpch", "workload (tpch or tpcds)")
	query := flag.String("query", "", "trace only this query (default: all queries of the workload)")
	allocs := flag.Bool("allocs", false, "capture per-span heap allocation deltas (slows compilation; off by default)")
	format := flag.String("format", "chrome", "output format: chrome, prom, or json")
	out := flag.String("o", "-", "output file (\"-\" for stdout)")
	cfg, err := engine.ParseCommand("qtrace", flag.CommandLine, os.Args[1:])
	if err != nil {
		fail("%v", err)
	}

	switch *format {
	case "chrome", "prom", "json":
	default:
		fail("unknown format %q (want chrome, prom, or json)", *format)
	}

	queries, err := engine.Queries(*workload)
	if err == nil {
		queries, err = engine.Pick(queries, *query)
	}
	if err != nil {
		fail("%v", err)
	}

	var engines []backend.Engine
	for _, e := range engine.Backends(cfg.Arch) {
		if cfg.Engine == "all" || strings.Contains(strings.ToLower(e.Name()), strings.ToLower(cfg.Engine)) {
			engines = append(engines, e)
		}
	}
	if len(engines) == 0 {
		fail("no engine matches %q", cfg.Engine)
	}

	// Open the destination before the capture so a bad path fails fast.
	var dst io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		dst = f
	}

	// Trace: one tracer (hence one Chrome-trace process) per engine, each
	// running the selected queries on a fresh world.
	var traces []*obs.Trace
	report := &obs.Report{
		Schema: obs.Schema, Arch: cfg.Arch.String(),
		Workload: *workload, SF: cfg.SF, Jobs: cfg.Jobs, Engines: []obs.EngineReport{},
	}
	for _, eng := range engines {
		cfg.Tracer = obs.New(obs.Options{Allocs: *allocs})
		w, err := bench.NewWorldLoaded(cfg, *workload)
		if err != nil {
			fail("load %s: %v", *workload, err)
		}
		run, err := bench.RunSuite(w, eng, queries, cfg.Runs)
		if err != nil {
			fail("%v", err)
		}
		traces = append(traces, cfg.Tracer.Snapshot(eng.Name()))
		report.Engines = append(report.Engines, bench.EngineReportOf(run))
		if cfg.CacheMB > 0 {
			// The counts also land in -format prom/json output; this stderr
			// line makes them visible in the default chrome-trace mode.
			fmt.Fprintf(os.Stderr, "qtrace: %s code cache (%d MiB): %d hits, %d misses\n",
				eng.Name(), cfg.CacheMB, run.Stats.Counters["cache_hits"], run.Stats.Counters["cache_misses"])
		}
	}
	report.Global = obs.GlobalCounters()

	switch *format {
	case "chrome":
		if err := obs.WriteChrome(dst, traces...); err != nil {
			fail("%v", err)
		}
	case "prom":
		labels := map[string]string{"arch": cfg.Arch.String(), "workload": *workload}
		for _, tr := range traces {
			if err := tr.WritePrometheus(dst, labels); err != nil {
				fail("%v", err)
			}
		}
		// Process-wide counters (pcc code-cache hits/misses, tier
		// promotions, ...) are not scoped to any tracer; export them once.
		if err := obs.WriteGlobalPrometheus(dst, labels); err != nil {
			fail("%v", err)
		}
	case "json":
		if err := report.Write(dst); err != nil {
			fail("%v", err)
		}
	default:
		fail("unknown format %q (want chrome, prom, or json)", *format)
	}
}
