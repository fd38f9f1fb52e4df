// Command qbench regenerates the paper's tables and figures.
//
// Usage:
//
//	qbench [-arch vx64|va64] [-sf 0.05] [-runs 1] [-mem 1024] [-check]
//	       [-sf-small 0.02] [-sf-large 0.2] [-json file] <experiment>...
//
// Experiments: table1 table2 table3 fig2 fig3 fig4 fig5 fig6 fig7
// ablate-llvm fallbacks all (the default). Anything else is a usage error.
//
// Every experiment measures the paper's configuration: sequential, uncached
// compilation and sequential tuple-at-a-time execution. The execution modes
// this repository added on top (parallel compilation, the code cache, batch
// kernels, the morsel-parallel executor) are measured by benchmark/run.sh,
// explored one query at a time with qrun and qtrace, and held to their
// counter facts by internal/engine's TestCounters*.
//
// -json writes a machine-readable report (schema qcc.obs.report/v2) of the
// TPC-H suite over all engines to the given file ("-" for stdout). With
// -json and no experiment arguments, only the JSON report is produced.
// -check runs the machine-code verifier inside every compilation; its cost
// appears as Check.* phases in the report. The engine flags are registered
// by engine.ParseCommand (DESIGN.md, "Query path").
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"qcc/internal/bench"
	"qcc/internal/engine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the exit
// status: 0, 1 for a failed experiment, 2 for a usage error.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sfSmall := fs.Float64("sf-small", 0.02, "small scale factor for fig7")
	sfLarge := fs.Float64("sf-large", 0.2, "large scale factor for fig7")
	jsonOut := fs.String("json", "", "write a qcc.obs.report/v2 JSON report of the TPC-H suite to this file (\"-\" for stdout)")
	cfg, err := engine.ParseCommand("qbench", fs, argv)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "qbench:", err)
		return 2
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
	}
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.name
	}
	args := fs.Args()
	want := map[string]bool{}
	for _, a := range args {
		if a != "all" && !slices.Contains(names, a) {
			fmt.Fprintf(stderr, "qbench: unknown experiment %q (have: %s all)\n", a, strings.Join(names, " "))
			return 2
		}
		want[a] = true
	}

	if *jsonOut != "" {
		// Open the destination before the (long) benchmark run so a bad
		// path fails immediately.
		out := stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintf(stderr, "json: %v\n", err)
				return 1
			}
			defer f.Close()
			out = f
		}
		rep, err := bench.JSONReport(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "json: %v\n", err)
			return 1
		}
		if err := rep.Write(out); err != nil {
			fmt.Fprintf(stderr, "json: %v\n", err)
			return 1
		}
		if len(args) == 0 {
			return 0 // JSON-only invocation
		}
	}
	if len(args) == 0 {
		want["all"] = true
	}
	for _, e := range exps {
		if want["all"] && e.name == "fallbacks" {
			continue // same data as ablate-llvm
		}
		if !want["all"] && !want[e.name] {
			continue
		}
		rep, err := e.run()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintln(stdout, rep.String())
	}
	return 0
}
