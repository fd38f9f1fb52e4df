// Command qrun executes SQL against a generated workload with a chosen
// back-end and prints results plus the compile-time breakdown.
//
// Usage:
//
//	qrun [-engine adaptive] [-workload tpch|tpcds] [-sf 0.05] [-arch vx64]
//	     [-mem 512] [-exec-jobs N] [-batch|-nobatch]
//	     [-cache-mb N] [-repeat N] "SELECT ..."
//
// -exec-jobs N executes table pipelines through the morsel-parallel
// executor with N workers. Eligible scan pipelines compile to
// batch-at-a-time kernels by default, as under qc.Open; -nobatch forces
// tuple-at-a-time code. Results are identical under every combination.
//
// -cache-mb N enables the content-addressed compiled-code cache; since
// constant hoisting parameterizes compiled bodies, re-running the query (or
// a constant-only variant of it — see -repeat) finds its whole program in
// the cache and skips code generation and compilation altogether. Program
// hits and unit hit/miss counts print with the stats summary.
//
// Flags shared with other commands are registered by engine.ParseCommand
// (DESIGN.md, "Query path").
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"qcc"
	"qcc/internal/engine"
)

func main() {
	workload := flag.String("workload", "tpch", "preloaded schema: tpch or tpcds")
	repeat := flag.Int("repeat", 1, "run the query N times (later runs hit the cache when -cache-mb > 0)")
	o, err := engine.ParseCommand("qrun", flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qrun [flags] \"SELECT ...\"")
		os.Exit(2)
	}

	db, err := qc.Open(qc.WithArch(o.Arch), qc.WithMemoryMB(o.MemMB), qc.WithEngine(o.Engine),
		qc.WithExecJobs(o.ExecJobs), qc.WithBatch(o.Batch), qc.WithCacheMB(o.CacheMB))
	if err != nil {
		fatal(err)
	}
	switch *workload {
	case "tpch":
		err = db.LoadTPCH(o.SF)
	case "tpcds":
		err = db.LoadTPCDS(o.SF)
	default:
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if err != nil {
		fatal(err)
	}

	var hits, misses int64
	programHits := 0
	var res *qc.Result
	for r := 0; r < *repeat; r++ {
		res, err = db.Exec(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		hits += res.Stats.CacheHits
		misses += res.Stats.CacheMisses
		if res.Stats.ProgramHit {
			programHits++
		}
	}
	for _, row := range res.Rows {
		fmt.Println(strings.Join(row, " | "))
	}
	fmt.Fprintf(os.Stderr, "\n%d rows; engine %s; %d functions, %d bytes of code\n",
		len(res.Rows), res.Stats.Engine, res.Stats.Functions, res.Stats.CodeBytes)
	fmt.Fprintf(os.Stderr, "compile %v, execute %v\n", res.Stats.CompileTime, res.Stats.ExecTime)
	if o.CacheMB > 0 {
		fmt.Fprintf(os.Stderr, "code cache (%d MiB): %d program hits; units %d hits, %d misses across %d runs\n",
			o.CacheMB, programHits, hits, misses, *repeat)
	}
	var names []string
	for n := range res.Stats.Phases {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return res.Stats.Phases[names[i]] > res.Stats.Phases[names[j]] })
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-20s %v\n", n, res.Stats.Phases[n])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qrun:", err)
	os.Exit(1)
}
